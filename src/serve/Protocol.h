//===- serve/Protocol.h - The verb table of the serve protocol --*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline verb protocol both of scserved's front ends (net/Server.h)
/// speak: request parsing, one table that routes every verb, and the
/// replies that need no server state. Stateful replies come from answerQuery()
/// (serve/QueryEngine.h) and ServerCore::handleWriterVerb(), so every
/// reply text is built in exactly one place.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_PROTOCOL_H
#define POCE_SERVE_PROTOCOL_H

#include <cstddef>
#include <string>

namespace poce {
namespace serve {

/// One parsed request line: a verb, up to two whitespace-split arguments,
/// and the raw remainder after the verb (which preserves the spacing of
/// `add` constraint payloads).
struct Request {
  std::string Verb, Arg1, Arg2, Rest;
};

/// Splits \p Line into a Request.
Request parseRequest(const std::string &Line);

/// How a front end routes a request.
enum class VerbClass {
  Skip,   ///< Blank or `#` comment line: no reply.
  Query,  ///< ls, pts, alias: answerQuery() on a settled solver.
  Help,   ///< help: localReply().
  Quit,   ///< quit, exit: localReply(), then the session ends.
  Writer, ///< Everything else, unknown verbs included: the writer side
          ///< (ServerCore::handleWriterVerb, after the socket server's
          ///< own replicate/promote).
};

/// Routes \p Verb through the verb table.
VerbClass classifyVerb(const std::string &Verb);

/// The reply to a Help or Quit request. The \p Socket front end's help
/// also lists the verbs only it serves (replicate, promote).
std::string localReply(VerbClass Class, bool Socket);

/// The reply to a request line of \p Bytes bytes (decimal, as
/// net::LineBuffer reports it) that exceeded the \p Limit.
std::string tooLargeReply(const std::string &Bytes, size_t Limit);

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_PROTOCOL_H
