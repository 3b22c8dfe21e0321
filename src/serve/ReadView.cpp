//===- serve/ReadView.cpp - Immutable published query views ---------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/ReadView.h"

#include <algorithm>
#include <cassert>

using namespace poce;
using namespace poce::serve;

std::string render::locationTag(const ConstraintSolver &Solver,
                                ExprId Term) {
  const TermTable &Terms = Solver.terms();
  if (Terms.kind(Term) == ExprKind::Cons) {
    const ConstructorTable &Cons = Terms.constructors();
    ConsId C = Terms.consOf(Term);
    if (Cons.signature(C).arity() == 0)
      return Cons.signature(C).Name;
    // ref(l, get, set)-shaped terms: the first argument is the location
    // name constructor.
    ExprId First = Terms.argsOf(Term)[0];
    if (Terms.kind(First) == ExprKind::Cons &&
        Cons.signature(Terms.consOf(First)).arity() == 0)
      return Cons.signature(Terms.consOf(First)).Name;
  }
  return Solver.exprStr(Term);
}

std::vector<std::string>
render::lsItems(const ConstraintSolver &Solver,
                const std::vector<ExprId> &Terms) {
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(Solver.exprStr(Term));
  return Items;
}

std::vector<std::string>
render::ptsItems(const ConstraintSolver &Solver,
                 const std::vector<ExprId> &Terms) {
  // Projection to tags can fold several terms onto one location; keep
  // the output sorted and deduplicated so responses are canonical.
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(locationTag(Solver, Term));
  std::sort(Items.begin(), Items.end());
  Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
  return Items;
}

std::string render::renderSet(const std::vector<std::string> &Items) {
  std::string Out = "{";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : " ") + Items[I];
  Out += Items.empty() ? "}" : " }";
  return Out;
}

std::vector<std::string> render::splitSet(const std::string &Set) {
  std::vector<std::string> Items;
  if (Set.size() < 4 || Set.front() != '{' || Set.back() != '}')
    return Items; // "{}" or not a set.
  const std::string Body = Set.substr(2, Set.size() - 4);
  int Depth = 0;
  size_t Start = 0;
  for (size_t I = 0; I != Body.size(); ++I) {
    if (Body[I] == '(')
      ++Depth;
    else if (Body[I] == ')')
      --Depth;
    else if (Depth == 0 && Body.compare(I, 2, ", ") == 0) {
      Items.push_back(Body.substr(Start, I - Start));
      Start = I + 2;
    }
  }
  Items.push_back(Body.substr(Start));
  return Items;
}

std::shared_ptr<const ReadView>
ReadView::capture(ConstraintSolver &Solver,
                  const ConstraintSystemFile &System, uint64_t Generation,
                  const ReadView *Prev) {
  auto View = std::make_shared<ReadView>();
  View->Generation = Generation;
  // A new generation is a solver rebuilt from bytes: its mutation epochs
  // restarted, so an equal epoch proves nothing and nothing is shared.
  if (Prev && Prev->Generation != Generation)
    Prev = nullptr;

  // Names are only ever appended within a generation, so an unchanged
  // count means an unchanged table.
  const std::vector<std::string> &Declared = System.varNames();
  if (Prev && Prev->Names->size() == Declared.size()) {
    View->Names = Prev->Names;
  } else {
    auto Names = std::make_shared<NameTable>();
    Names->reserve(Declared.size());
    for (uint32_t I = 0; I != Declared.size(); ++I)
      Names->emplace(Declared[I], I);
    View->Names = std::move(Names);
  }

  Solver.readSettled([&] {
    View->RepOfCreation.resize(Solver.numCreations());
    for (uint32_t I = 0; I != Solver.numCreations(); ++I)
      View->RepOfCreation[I] = Solver.rep(Solver.varOfCreation(I));

    View->Entries.resize(Solver.numVars());
    for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
      if (!Solver.isLive(Var))
        continue;
      const uint64_t Epoch = Solver.mutationEpoch(Var);
      if (Prev && Var < Prev->Entries.size() && Prev->Entries[Var] &&
          Prev->Entries[Var]->MutationEpoch == Epoch) {
        View->Entries[Var] = Prev->Entries[Var];
        continue;
      }
      auto Fresh = std::make_shared<Entry>();
      Fresh->MutationEpoch = Epoch;
      Fresh->Bits = Solver.leastSolutionBits(Var);
      const std::vector<ExprId> Terms = Fresh->Bits.toVector<ExprId>();
      Fresh->Ls = render::renderSet(render::lsItems(Solver, Terms));
      Fresh->Pts = render::renderSet(render::ptsItems(Solver, Terms));
      View->Entries[Var] = std::move(Fresh);
      ++View->Rebuilt;
    }
  });
  return View;
}

const ReadView::Entry *ReadView::lookup(const std::string &Name,
                                        VarId &Rep) const {
  auto It = Names->find(Name);
  if (It == Names->end() || It->second >= RepOfCreation.size())
    return nullptr;
  Rep = RepOfCreation[It->second];
  return Entries[Rep].get();
}

std::string serve::answerQuery(const ReadView &View, const Request &Req) {
  assert(classifyVerb(Req.Verb) == VerbClass::Query &&
         "answerQuery serves ls/pts/alias only");
  auto Unknown = [](const std::string &Name) {
    return "err " + Status::error(ErrorCode::NotFound,
                                  "unknown variable '" + Name + "'")
                        .wire();
  };
  VarId X = 0, Y = 0;
  const ReadView::Entry *AtX = View.lookup(Req.Arg1, X);
  if (!AtX)
    return Unknown(Req.Arg1);
  if (Req.Verb == "alias") {
    const ReadView::Entry *AtY = View.lookup(Req.Arg2, Y);
    if (!AtY)
      return Unknown(Req.Arg2);
    return X == Y || AtX->Bits.intersects(AtY->Bits) ? "ok true"
                                                     : "ok false";
  }
  return "ok " + (Req.Verb == "ls" ? AtX->Ls : AtX->Pts);
}
