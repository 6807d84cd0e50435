#include "client/session_view.h"

#include <map>

namespace cqms::client {

namespace {

std::string Truncate(const std::string& s, size_t width) {
  if (s.size() <= width) return s;
  return s.substr(0, width - 3) + "...";
}

std::string MinuteOffset(Micros start, Micros t) {
  Micros delta = t - start;
  int64_t minutes = delta / kMicrosPerMinute;
  int64_t seconds = (delta % kMicrosPerMinute) / kMicrosPerSecond;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "+%lld:%02lld", static_cast<long long>(minutes),
                static_cast<long long>(seconds));
  return buf;
}

std::string DotEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string RenderSessionAscii(const storage::QueryStore& store,
                               const miner::Session& session,
                               size_t max_text_width) {
  std::string out = "Session #" + std::to_string(session.id) + " (user " +
                    session.user + ", " + std::to_string(session.queries.size()) +
                    " queries)\n";
  // Edge lookup by source query.
  std::map<storage::QueryId, const miner::SessionEdge*> edge_from;
  for (const miner::SessionEdge& e : session.edges) edge_from[e.from] = &e;

  for (size_t i = 0; i < session.queries.size(); ++i) {
    storage::QueryId id = session.queries[i];
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr) continue;
    out += "  [q" + std::to_string(id) + " " +
           MinuteOffset(session.start, r->timestamp) + "] " +
           Truncate(r->parse_failed() ? r->text + "  (parse error)"
                                      : r->statement().canonical_text,
                    max_text_width) +
           "\n";
    auto it = edge_from.find(id);
    if (it != edge_from.end() && i + 1 < session.queries.size()) {
      out += "     | " + it->second->diff.Summary() + "\n";
    }
  }
  return out;
}

std::string RenderSessionDot(const storage::QueryStore& store,
                             const miner::Session& session) {
  std::string out = "digraph session_" + std::to_string(session.id) + " {\n";
  out += "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (storage::QueryId id : session.queries) {
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr) continue;
    out += "  q" + std::to_string(id) + " [label=\"" +
           DotEscape(Truncate(r->text, 48)) + "\"];\n";
  }
  for (const miner::SessionEdge& e : session.edges) {
    out += "  q" + std::to_string(e.from) + " -> q" + std::to_string(e.to) +
           " [label=\"" + DotEscape(Truncate(e.diff.Summary(), 40)) + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace cqms::client
