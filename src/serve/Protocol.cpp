//===- serve/Protocol.cpp - The verb table of the serve protocol ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Status.h"

#include <cassert>
#include <sstream>

using namespace poce;
using namespace poce::serve;

namespace {

struct VerbEntry {
  const char *Name;
  VerbClass Class;
  const char *Usage; ///< As `help` lists it; null for unlisted aliases.
  bool SocketOnly;
};

/// Every verb either front end serves, in `help` order. Writer verbs are
/// listed only for `help`: classifyVerb() routes any verb it does not
/// find here to the writer side too, which answers unknown ones.
constexpr VerbEntry Verbs[] = {
    {"ls", VerbClass::Query, "ls X", false},
    {"pts", VerbClass::Query, "pts X", false},
    {"alias", VerbClass::Query, "alias X Y", false},
    {"add", VerbClass::Writer, "add LINE", false},
    {"retract", VerbClass::Writer, "retract LINE", false},
    {"save", VerbClass::Writer, "save PATH", false},
    {"checkpoint", VerbClass::Writer, "checkpoint [PATH]", false},
    {"stats", VerbClass::Writer, "stats", false},
    {"counters", VerbClass::Writer, "counters", false},
    {"metrics", VerbClass::Writer, "metrics", false},
    {"verify", VerbClass::Writer, "verify", false},
    {"replicate", VerbClass::Writer, "replicate BASE SEQ", true},
    {"promote", VerbClass::Writer, "promote", true},
    {"shutdown", VerbClass::Writer, "shutdown", false},
    {"help", VerbClass::Help, "help", false},
    {"quit", VerbClass::Quit, "quit", false},
    {"exit", VerbClass::Quit, nullptr, false},
};

} // namespace

Request serve::parseRequest(const std::string &Line) {
  Request Req;
  std::istringstream In(Line);
  In >> Req.Verb >> Req.Arg1 >> Req.Arg2;
  size_t VerbEnd = Line.find(Req.Verb);
  if (VerbEnd != std::string::npos) {
    size_t RestAt = VerbEnd + Req.Verb.size();
    while (RestAt < Line.size() && Line[RestAt] == ' ')
      ++RestAt;
    Req.Rest = Line.substr(RestAt);
  }
  return Req;
}

VerbClass serve::classifyVerb(const std::string &Verb) {
  if (Verb.empty() || Verb[0] == '#')
    return VerbClass::Skip;
  for (const VerbEntry &Entry : Verbs)
    if (Verb == Entry.Name)
      return Entry.Class;
  return VerbClass::Writer;
}

std::string serve::localReply(VerbClass Class, bool Socket) {
  assert((Class == VerbClass::Help || Class == VerbClass::Quit) &&
         "only help and quit have a local reply");
  if (Class == VerbClass::Quit)
    return "ok bye";
  std::string Reply = "ok commands:";
  const char *Sep = " ";
  for (const VerbEntry &Entry : Verbs) {
    if (!Entry.Usage || (Entry.SocketOnly && !Socket))
      continue;
    Reply += Sep;
    Reply += Entry.Usage;
    Sep = " | ";
  }
  return Reply;
}

std::string serve::tooLargeReply(const std::string &Bytes, size_t Limit) {
  return "err " + Status::error(ErrorCode::TooLarge,
                                "request is " + Bytes + " bytes; limit is " +
                                    std::to_string(Limit))
                      .wire();
}
