#ifndef CQMS_TESTS_WIRE_CORPUS_H_
#define CQMS_TESTS_WIRE_CORPUS_H_

// A deterministic corpus of wire message bodies, shared by
// tests/wire_test.cc and by the program that wrote the golden fixture
// tests/data/wire_golden.txt. It reaches the codecs only through the
// named net::EncodeX / net::DecodeX entry points and fills the message
// structs member by member, so the same corpus builds against any
// revision of the codec that keeps those names and layouts.
//
// For every one of the 25 body messages the corpus holds:
//   - the message at its defaults;
//   - the message with every optional present, every vector non-empty
//     and edge values (INT64_MIN, UINT64_MAX, NaN, two-byte lengths...);
//   - kRandomPerMessage seeded random instances;
// and, for the three messages that grew trailing fields, each
// pre-minor truncation: the body an older peer would send.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_codec.h"
#include "common/rng.h"
#include "net/wire.h"

namespace cqms::wiretest {

// The 25 body messages, in protocol order.
#define CQMS_CORPUS_MESSAGES(X)                                             \
  X(HelloRequest) X(HelloResponse) X(SearchRequest) X(SearchResult)         \
  X(AppendRequest) X(AppendResult) X(RewriteRequest) X(AnnotateRequest)     \
  X(SetVisibilityRequest) X(DeleteRequest) X(RegisterUserRequest)           \
  X(RecommendRequest) X(RecommendResult) X(BrowseRequest)                   \
  X(ShowSessionRequest) X(TextResult) X(StatsResult) X(MaintainRequest)     \
  X(ReplSubscribeRequest) X(ReplSubscribeResult) X(ReplFrameBatch)          \
  X(ReplHeartbeat) X(ReplSnapshotBegin) X(ReplSnapshotChunk)                \
  X(ReplAckRequest)

#define CQMS_CORPUS_CODEC(M)                                      \
  inline void EncodeMessage(BinaryWriter* w, const net::M& m) {   \
    net::Encode##M(w, m);                                         \
  }                                                               \
  inline bool DecodeMessage(BinaryReader* r, net::M* m) {         \
    return net::Decode##M(r, m);                                  \
  }
CQMS_CORPUS_MESSAGES(CQMS_CORPUS_CODEC)
#undef CQMS_CORPUS_CODEC

template <typename M>
std::string EncodeToString(const M& m) {
  BinaryWriter w;
  EncodeMessage(&w, m);
  return w.Take();
}

constexpr int kRandomPerMessage = 6;

/// Sets every member of a message: edge values (a counter cycles each
/// type through its edges) or seeded random values.
class Filler {
 public:
  enum class Mode { kEdges, kRandom };

  Filler(Mode mode, uint64_t seed) : mode_(mode), rng_(seed) {}

  void Fill(std::string* v) {
    if (edges()) {
      // 130 bytes: a two-byte length prefix, NUL and 0xFF inside.
      *v = std::string(64, 'a') + std::string(1, '\0') +
           std::string(64, '\xff') + "z";
      return;
    }
    v->resize(rng_.Uniform(12));
    for (char& c : *v) c = static_cast<char>(rng_.Next() & 0xFF);
  }
  void Fill(bool* v) { *v = edges() ? true : rng_.Uniform(2) == 1; }
  void Fill(uint8_t* v) {
    *v = static_cast<uint8_t>(edges() ? 0xFF : rng_.Next());
  }
  void Fill(uint32_t* v) {
    static constexpr uint32_t kEdges[] = {UINT32_MAX, 0, 0x80, 0x7F};
    *v = edges() ? kEdges[next_++ % 4] : static_cast<uint32_t>(Bits());
  }
  void Fill(uint64_t* v) {
    static constexpr uint64_t kEdges[] = {UINT64_MAX, 0, 0x80, 0x7F};
    *v = edges() ? kEdges[next_++ % 4] : Bits();
  }
  void Fill(int64_t* v) {
    static constexpr int64_t kEdges[] = {INT64_MIN, INT64_MAX, -1, 0};
    *v = edges() ? kEdges[next_++ % 4] : static_cast<int64_t>(Bits());
  }
  void Fill(int* v) {
    static constexpr int kEdges[] = {INT32_MIN, INT32_MAX, -1, 0};
    *v = edges() ? kEdges[next_++ % 4] : static_cast<int>(Bits());
  }
  void Fill(double* v) {
    static const double kEdges[] = {
        -0.0, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    if (edges()) {
      *v = kEdges[next_++ % 5];
      return;
    }
    *v = (rng_.UniformDouble() - 0.5) * std::pow(10.0, rng_.UniformInt(-8, 12));
  }
  void Fill(metaquery::ResultOrder* v) {
    *v = static_cast<metaquery::ResultOrder>(edges() ? 1 : rng_.Uniform(2));
  }
  void Fill(storage::Visibility* v) {
    *v = static_cast<storage::Visibility>(edges() ? 2 : rng_.Uniform(3));
  }
  void Fill(db::Value* v) {
    switch (edges() ? next_++ % 5 : rng_.Uniform(5)) {
      case 0: *v = db::Value::Null(); break;
      case 1: { int64_t i; Fill(&i); *v = db::Value::Int(i); break; }
      case 2: { double d; Fill(&d); *v = db::Value::Double(d); break; }
      case 3: { std::string s; Fill(&s); *v = db::Value::String(s); break; }
      default: { bool b; Fill(&b); *v = db::Value::Bool(b); break; }
    }
  }
  template <typename T>
  void Fill(std::optional<T>* v) {
    if (!edges() && rng_.Uniform(2) == 0) {
      v->reset();
      return;
    }
    v->emplace();
    Fill(&**v);
  }
  template <typename T>
  void Fill(std::vector<T>* v) {
    v->resize(edges() ? 2 : rng_.Uniform(4));
    for (T& e : *v) Fill(&e);
  }
  template <typename A, typename B>
  void Fill(std::pair<A, B>* v) {
    Fill(&v->first);
    Fill(&v->second);
  }

  // --- nested structs ------------------------------------------------------

  void Fill(net::FeatureSpec::Predicate* m) {
    Fill(&m->relation); Fill(&m->attribute); Fill(&m->op);
  }
  void Fill(net::FeatureSpec* m) {
    Fill(&m->tables); Fill(&m->attributes); Fill(&m->predicates);
    Fill(&m->user); Fill(&m->max_execution_micros);
    Fill(&m->max_result_rows); Fill(&m->min_result_rows);
    Fill(&m->succeeded_only);
  }
  void Fill(metaquery::StructuralPattern* m) {
    Fill(&m->required_tables); Fill(&m->forbidden_tables);
    Fill(&m->required_predicate_skeletons); Fill(&m->required_aggregates);
    Fill(&m->requires_subquery); Fill(&m->requires_group_by);
    Fill(&m->min_joins); Fill(&m->max_joins); Fill(&m->min_nesting_depth);
  }
  void Fill(net::DataExampleSpec* m) { Fill(&m->cells); Fill(&m->positive); }
  void Fill(net::DataSpec* m) {
    Fill(&m->examples); Fill(&m->reexecute); Fill(&m->skip_without_summary);
  }
  void Fill(net::SimilaritySpec* m) {
    Fill(&m->probe_text);
    Fill(&m->weights.feature); Fill(&m->weights.text); Fill(&m->weights.output);
    Fill(&m->candidates.use_lsh); Fill(&m->candidates.lsh_min_log_size);
    Fill(&m->candidates.probe_bands);
  }
  void Fill(net::KeywordSpec* m) { Fill(&m->words); Fill(&m->match_all); }
  void Fill(metaquery::RankingOptions* m) {
    Fill(&m->w_similarity); Fill(&m->w_popularity); Fill(&m->w_quality);
    Fill(&m->w_recency); Fill(&m->exclude_flagged); Fill(&m->min_similarity);
  }
  void Fill(net::SearchSpec* m) {
    Fill(&m->keyword); Fill(&m->substring); Fill(&m->feature);
    Fill(&m->structure); Fill(&m->data); Fill(&m->similarity);
    Fill(&m->ranking); Fill(&m->order); Fill(&m->limit); Fill(&m->want_trace);
  }
  void Fill(net::TraceSummary* m) {
    Fill(&m->generator); Fill(&m->counters); Fill(&m->spans_micros);
  }
  void Fill(net::SearchResult::Match* m) {
    Fill(&m->id); Fill(&m->similarity); Fill(&m->score);
  }
  void Fill(net::RecommendationItem* m) {
    Fill(&m->id); Fill(&m->score); Fill(&m->similarity);
    Fill(&m->text); Fill(&m->diff); Fill(&m->annotation);
  }
  void Fill(net::OpStatsRow* m) {
    Fill(&m->op); Fill(&m->count); Fill(&m->errors); Fill(&m->bytes_in);
    Fill(&m->bytes_out); Fill(&m->p50_micros); Fill(&m->p99_micros);
    Fill(&m->max_micros);
  }
  void Fill(net::ReplFramed* m) { Fill(&m->crc32); Fill(&m->frame); }

  // --- the 25 body messages ------------------------------------------------

  void Fill(net::HelloRequest* m) {
    Fill(&m->protocol_version); Fill(&m->client_name);
  }
  void Fill(net::HelloResponse* m) {
    Fill(&m->protocol_version); Fill(&m->server_version); Fill(&m->store_size);
  }
  void Fill(net::SearchRequest* m) { Fill(&m->viewer); Fill(&m->spec); }
  void Fill(net::SearchResult* m) {
    Fill(&m->matches); Fill(&m->generator);
    Fill(&m->candidates_considered); Fill(&m->trace);
  }
  void Fill(net::AppendRequest* m) {
    Fill(&m->user); Fill(&m->sql); Fill(&m->execute);
  }
  void Fill(net::AppendResult* m) {
    Fill(&m->id); Fill(&m->succeeded); Fill(&m->error);
    Fill(&m->result_rows); Fill(&m->exec_micros);
  }
  void Fill(net::RewriteRequest* m) { Fill(&m->id); Fill(&m->new_text); }
  void Fill(net::AnnotateRequest* m) {
    Fill(&m->id); Fill(&m->author); Fill(&m->text); Fill(&m->fragment);
  }
  void Fill(net::SetVisibilityRequest* m) {
    Fill(&m->requester); Fill(&m->id); Fill(&m->visibility);
  }
  void Fill(net::DeleteRequest* m) {
    Fill(&m->requester); Fill(&m->id); Fill(&m->is_admin);
  }
  void Fill(net::RegisterUserRequest* m) { Fill(&m->user); Fill(&m->groups); }
  void Fill(net::RecommendRequest* m) {
    Fill(&m->viewer); Fill(&m->sql_text); Fill(&m->k);
  }
  void Fill(net::RecommendResult* m) { Fill(&m->items); }
  void Fill(net::BrowseRequest* m) { Fill(&m->viewer); Fill(&m->max_sessions); }
  void Fill(net::ShowSessionRequest* m) {
    Fill(&m->viewer); Fill(&m->session_id);
  }
  void Fill(net::TextResult* m) { Fill(&m->text); }
  void Fill(net::StatsResult* m) {
    Fill(&m->server_version); Fill(&m->uptime_micros);
    Fill(&m->active_connections); Fill(&m->total_connections);
    Fill(&m->rejected_connections); Fill(&m->protocol_errors);
    Fill(&m->store_size); Fill(&m->published_sequence); Fill(&m->per_op);
    Fill(&m->durable_read_only); Fill(&m->checkpoint_failure_streak);
    Fill(&m->checkpoints_backed_off); Fill(&m->arena_garbage_bytes);
    Fill(&m->role); Fill(&m->primary_address); Fill(&m->repl_connected);
    Fill(&m->repl_applied_sequence); Fill(&m->repl_primary_sequence);
    Fill(&m->repl_followers); Fill(&m->repl_min_acked_sequence);
    Fill(&m->repl_backlog_bytes);
  }
  void Fill(net::MaintainRequest* m) { Fill(&m->run_mining); }
  void Fill(net::ReplSubscribeRequest* m) {
    Fill(&m->from_sequence); Fill(&m->follower_name); Fill(&m->force_snapshot);
  }
  void Fill(net::ReplSubscribeResult* m) {
    Fill(&m->snapshot_bootstrap); Fill(&m->primary_sequence);
  }
  void Fill(net::ReplFrameBatch* m) {
    Fill(&m->frames); Fill(&m->primary_sequence);
  }
  void Fill(net::ReplHeartbeat* m) { Fill(&m->primary_sequence); }
  void Fill(net::ReplSnapshotBegin* m) {
    Fill(&m->covered_sequence); Fill(&m->total_bytes); Fill(&m->crc32);
  }
  void Fill(net::ReplSnapshotChunk* m) { Fill(&m->data); }
  void Fill(net::ReplAckRequest* m) { Fill(&m->acked_sequence); }

 private:
  bool edges() const { return mode_ == Mode::kEdges; }
  /// A random value of random bit width, so short and long varints both
  /// occur.
  uint64_t Bits() {
    unsigned width = static_cast<unsigned>(rng_.Uniform(65));
    uint64_t v = rng_.Next();
    return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
  }

  Mode mode_;
  Rng rng_;
  uint64_t next_ = 0;
};

/// The message with every member set by `mode`.
template <typename M>
M Filled(Filler::Mode mode, uint64_t seed) {
  M m;
  Filler(mode, seed).Fill(&m);
  return m;
}

/// Calls visit(name, message, cut) for every corpus entry: the entry's
/// body is EncodeToString(message) minus its last `cut` bytes.
template <typename Visitor>
void ForEachSample(Visitor&& visit) {
  uint64_t type_index = 0;
#define CQMS_CORPUS_VISIT(M)                                               \
  ++type_index;                                                            \
  visit(std::string(#M "/defaults"), net::M{}, size_t{0});                 \
  visit(std::string(#M "/edges"),                                          \
        Filled<net::M>(Filler::Mode::kEdges, type_index), size_t{0});      \
  for (int i = 0; i < kRandomPerMessage; ++i) {                            \
    visit(std::string(#M "/random-") + std::to_string(i),                  \
          Filled<net::M>(Filler::Mode::kRandom, type_index * 1000 + i),    \
          size_t{0});                                                      \
  }
  CQMS_CORPUS_MESSAGES(CQMS_CORPUS_VISIT)
#undef CQMS_CORPUS_VISIT

  // Pre-minor truncations. With the trailing fields at their defaults a
  // body ends in fixed bytes: SearchRequest's want_trace (1 byte) and
  // SearchResult's has-trace flag (1 byte) are minor 1; StatsResult's
  // replication tail (8 bytes) is minor 2 and its durability tail
  // (4 more bytes) minor 1.
  for (Filler::Mode mode : {Filler::Mode::kEdges, Filler::Mode::kRandom}) {
    const std::string tag = mode == Filler::Mode::kEdges ? "edges" : "random";
    auto search = Filled<net::SearchRequest>(mode, 77);
    search.spec.want_trace = false;
    visit("SearchRequest/pre-minor-1/" + tag, search, size_t{1});
    auto result = Filled<net::SearchResult>(mode, 78);
    result.trace.reset();
    visit("SearchResult/pre-minor-1/" + tag, result, size_t{1});
    net::StatsResult stats = Filled<net::StatsResult>(mode, 79);
    net::StatsResult tail_defaults;
    tail_defaults.server_version = stats.server_version;
    tail_defaults.uptime_micros = stats.uptime_micros;
    tail_defaults.active_connections = stats.active_connections;
    tail_defaults.total_connections = stats.total_connections;
    tail_defaults.rejected_connections = stats.rejected_connections;
    tail_defaults.protocol_errors = stats.protocol_errors;
    tail_defaults.store_size = stats.store_size;
    tail_defaults.published_sequence = stats.published_sequence;
    tail_defaults.per_op = stats.per_op;
    visit("StatsResult/pre-minor-1/" + tag, tail_defaults, size_t{12});
    tail_defaults.durable_read_only = stats.durable_read_only;
    tail_defaults.checkpoint_failure_streak = stats.checkpoint_failure_streak;
    tail_defaults.checkpoints_backed_off = stats.checkpoints_backed_off;
    tail_defaults.arena_garbage_bytes = stats.arena_garbage_bytes;
    visit("StatsResult/pre-minor-2/" + tag, tail_defaults, size_t{8});
  }
}

inline std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

}  // namespace cqms::wiretest

#endif  // CQMS_TESTS_WIRE_CORPUS_H_
