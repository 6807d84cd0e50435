#ifndef CQMS_NET_WIRE_H_
#define CQMS_NET_WIRE_H_

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binary_codec.h"
#include "common/status.h"
#include "db/value.h"
#include "metaquery/knn.h"
#include "metaquery/meta_query_request.h"
#include "metaquery/parse_tree_query.h"
#include "storage/access_control.h"
#include "storage/query_record.h"

namespace cqms::net {

/// Wire protocol version. Bumped on any incompatible envelope or body
/// change; the Hello handshake rejects mismatches with kWrongVersion
/// semantics (StatusCode::kUnsupported) before any other op is accepted.
constexpr uint32_t kProtocolVersion = 1;

/// Minor protocol revision: backward-compatible additions only (trailing
/// field groups marked SinceMinor in a field list, new ops old servers
/// reject with a typed error). Never checked by the handshake — it
/// exists so server version strings and docs can name the feature level.
/// 1: MetricsDump op, SearchSpec.want_trace + SearchResult.trace,
///    StatsResult durability/arena tail.
/// 2: WAL-shipping replication (ReplSubscribe / ReplStream / ReplAck),
///    StatusCode::kNotPrimary, StatsResult replication tail.
constexpr uint32_t kProtocolMinorVersion = 2;

// --- the op table ----------------------------------------------------------
//
// One row per operation: X(name, code, request, response, runs,
// follower_serves). The row is the only place an op's facts live: the
// Op enum, OpName, kMaxOp, the request/response types the codec and
// CqmsClient::Send/Wait use, and the server's dispatch (which thread
// runs it, whether a read replica serves it) all derive from it. Codes
// are wire-stable: append only, never renumber. Adding an op is one row
// here, one handler in the server, and a field list for each new
// message.
//
//   runs: kLoop   inline on the event-loop thread (touches no store);
//         kWorker on a worker, against a pinned read view;
//         kWriter on the single writer thread.
//
// MetricsDump (minor 1) returns the process's metrics registry as
// Prometheus-style text. Replication (minor 2; docs/replication.md): a
// follower sends ReplSubscribe from a sequence number; the primary
// answers with a ReplSubscribeResult and then pushes ReplStream messages
// (frames / heartbeats / snapshot bootstrap) tagged with the subscribe
// request id. ReplStream is never a request: servers answer it with
// kUnsupported. ReplAck reports the follower's highest contiguously
// applied sequence, which drives primary-side WAL retention.
#define CQMS_NET_OPS(X)                                                     \
  X(Hello, 1, HelloRequest, HelloResponse, kLoop, true)                     \
  X(Search, 2, SearchRequest, SearchResult, kWorker, true)                  \
  X(Append, 3, AppendRequest, AppendResult, kWriter, false)                 \
  X(Rewrite, 4, RewriteRequest, Empty, kWriter, false)                      \
  X(Annotate, 5, AnnotateRequest, Empty, kWriter, false)                    \
  X(SetVisibility, 6, SetVisibilityRequest, Empty, kWriter, false)          \
  X(Delete, 7, DeleteRequest, Empty, kWriter, false)                        \
  X(Recommend, 8, RecommendRequest, RecommendResult, kWorker, true)         \
  X(Browse, 9, BrowseRequest, TextResult, kWriter, true)                    \
  X(ShowSession, 10, ShowSessionRequest, TextResult, kWriter, true)         \
  X(Stats, 11, Empty, StatsResult, kLoop, true)                             \
  X(Checkpoint, 12, Empty, Empty, kWriter, false)                           \
  X(RegisterUser, 13, RegisterUserRequest, Empty, kWriter, false)           \
  X(Maintain, 14, MaintainRequest, Empty, kWriter, false)                   \
  X(MetricsDump, 15, Empty, TextResult, kLoop, true)                        \
  X(ReplSubscribe, 16, ReplSubscribeRequest, ReplSubscribeResult, kWriter,  \
    false)                                                                  \
  X(ReplStream, 17, Empty, Empty, kLoop, false)                             \
  X(ReplAck, 18, ReplAckRequest, Empty, kLoop, false)

/// Operation codes carried in every request and echoed in the response.
enum class Op : uint8_t {
#define CQMS_NET_OP_ENUM(name, code, ...) k##name = code,
  CQMS_NET_OPS(CQMS_NET_OP_ENUM)
#undef CQMS_NET_OP_ENUM
};

/// Where the server runs an op (see the table above).
enum class Runs : uint8_t { kLoop, kWorker, kWriter };

struct OpInfo {
  Op op;
  const char* name;
  Runs runs;
  /// A read replica serves it; otherwise a follower answers kNotPrimary.
  bool follower_serves;
};

inline constexpr OpInfo kOps[] = {
#define CQMS_NET_OP_ROW(name, code, request, response, runs, follower) \
  {Op::k##name, #name, Runs::runs, follower},
    CQMS_NET_OPS(CQMS_NET_OP_ROW)
#undef CQMS_NET_OP_ROW
};

/// Codes run kMinOp, kMinOp + 1, ... with no gap (checked in wire.cc).
constexpr uint8_t kMinOp = 1;
constexpr uint8_t kMaxOp = static_cast<uint8_t>(std::size(kOps));

/// The table row of a valid op (kMinOp..kMaxOp).
constexpr const OpInfo& InfoOf(Op op) {
  return kOps[static_cast<uint8_t>(op) - kMinOp];
}
/// The op's name, or "Unknown" for a code outside the table.
const char* OpName(Op op);

// --- field lists -----------------------------------------------------------
//
// Every body message has one field list, written right after the
// struct: CQMS_WIRE_FIELDS(T) { v(m.a, m.b, ...); }. The list fixes the
// wire order; the generic codec (EncodeBody / DecodeBody) derives each
// field's encoding from its C++ type:
//   std::string      varint length + bytes
//   bool, uint8_t    one byte (bool: 0 / 1)
//   enum             one byte; the decoder range-checks it
//   uint32/64_t      LEB128 varint
//   int, int64_t     zigzag varint
//   double           little-endian fixed64
//   optional<T>      present bool, then T
//   vector<T>        varint count, then each T; a count larger than the
//                    bytes left is malformed
//   pair<A, B>       A then B
//   db::Value        type byte, then the value
//   a struct         its own field list, inline
// Two markers adjust it: Fixed32(m.x) sends a uint32_t as fixed32 (CRCs),
// and SinceMinor{n} starts a trailing group added in minor revision n.
// A decoder that finds the body ending at the marker stops there and
// leaves the group at its defaults — the body an older peer sends.

/// Starts a trailing field group added in protocol minor `minor`. Only
/// a message's last fields may follow it, and such a message may only
/// be a body or the last field of its parent.
struct SinceMinor {
  uint32_t minor;
};

/// A uint32_t (or const uint32_t) member sent as fixed32.
template <typename U>
struct Fixed32 {
  explicit Fixed32(U& v) : value(v) {}
  U& value;
};

#define CQMS_WIRE_FIELDS(Type)                                     \
  template <typename M, typename V>                                \
  std::enable_if_t<std::is_same_v<std::remove_const_t<M>, Type>>   \
  WireFields([[maybe_unused]] M& m, V&& v)

/// Appends `m`'s body: its field list, in order. EncodeBody and
/// DecodeBody are instantiated in wire.cc for Empty and every
/// CQMS_NET_MESSAGES type.
template <typename M>
void EncodeBody(BinaryWriter* w, const M& m);

/// Reads the fields `m` knows, leaving a trailing group an older peer
/// did not send at its defaults. False on malformed bytes (truncated,
/// bad discriminant, impossible count). Bytes after the known fields
/// are left unread: the caller decides whether they are an error.
/// Servers require a request body to be used up (BinaryReader::AtEnd);
/// clients accept a newer server's trailing response fields.
template <typename M>
bool DecodeBody(BinaryReader* r, M* m);

/// The body of an op with no payload (Stats, Checkpoint and MetricsDump
/// requests; status-only responses).
struct Empty {};
CQMS_WIRE_FIELDS(Empty) { v(); }

// --- envelopes -------------------------------------------------------------
//
// Request payload:  varint request_id, u8 op, body...
// Response payload: varint request_id, u8 op, varint status code,
//                   string message (empty when OK), body... (only when OK)
//
// request_id is chosen by the client and echoed verbatim; clients
// pipeline many requests on one connection and match responses by id
// (the server may answer out of order).

struct RequestEnvelope {
  uint64_t request_id = 0;
  Op op = Op::kHello;
  std::string_view body;  ///< Aliases the decoded payload buffer.
};

struct ResponseEnvelope {
  uint64_t request_id = 0;
  Op op = Op::kHello;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string_view body;  ///< Aliases the decoded payload buffer.

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const { return Status(code, message); }
};

/// Starts a request payload; append the body to `w` afterwards.
void BeginRequest(BinaryWriter* w, uint64_t request_id, Op op);
/// Starts an OK response payload; append the body afterwards.
void BeginResponse(BinaryWriter* w, uint64_t request_id, Op op);
/// A complete typed-error response payload (no body follows).
void EncodeErrorResponse(BinaryWriter* w, uint64_t request_id, Op op,
                         const Status& error);

/// False on malformed envelope (unknown op, truncated). `payload` must
/// outlive the envelope (body aliases it).
bool DecodeRequestEnvelope(std::string_view payload, RequestEnvelope* out);
bool DecodeResponseEnvelope(std::string_view payload, ResponseEnvelope* out);

// --- hello -----------------------------------------------------------------

struct HelloRequest {
  uint32_t protocol_version = kProtocolVersion;
  std::string client_name;
};
CQMS_WIRE_FIELDS(HelloRequest) { v(m.protocol_version, m.client_name); }

struct HelloResponse {
  uint32_t protocol_version = kProtocolVersion;
  std::string server_version;
  uint64_t store_size = 0;
};
CQMS_WIRE_FIELDS(HelloResponse) {
  v(m.protocol_version, m.server_version, m.store_size);
}

// --- search ----------------------------------------------------------------
//
// SearchSpec mirrors metaquery::MetaQueryRequest with two wire-induced
// differences: the similarity probe travels as SQL text (the server
// builds the transient probe record), and query-by-data re-execution is
// a flag (the server would supply its own database) — v1 rejects it as
// kUnsupported because re-execution is a writer-thread feature.

struct FeatureSpec {
  std::vector<std::string> tables;
  std::vector<std::pair<std::string, std::string>> attributes;  // rel, attr
  struct Predicate {
    std::string relation;
    std::string attribute;
    std::string op;  // empty = any operator
  };
  std::vector<Predicate> predicates;
  std::optional<std::string> user;
  std::optional<int64_t> max_execution_micros;
  std::optional<uint64_t> max_result_rows;
  std::optional<uint64_t> min_result_rows;
  bool succeeded_only = false;
};
CQMS_WIRE_FIELDS(FeatureSpec::Predicate) {
  v(m.relation, m.attribute, m.op);
}
CQMS_WIRE_FIELDS(FeatureSpec) {
  v(m.tables, m.attributes, m.predicates, m.user, m.max_execution_micros,
    m.max_result_rows, m.min_result_rows, m.succeeded_only);
}

struct DataExampleSpec {
  std::vector<db::Value> cells;
  bool positive = true;
};
CQMS_WIRE_FIELDS(DataExampleSpec) { v(m.cells, m.positive); }

struct DataSpec {
  std::vector<DataExampleSpec> examples;
  /// Ask the server to re-execute inconclusive queries against its own
  /// database. Unsupported in protocol v1 (typed kUnsupported error).
  bool reexecute = false;
  bool skip_without_summary = true;
};
CQMS_WIRE_FIELDS(DataSpec) {
  v(m.examples, m.reexecute, m.skip_without_summary);
}

struct SimilaritySpec {
  std::string probe_text;
  metaquery::SimilarityWeights weights;
  metaquery::CandidateOptions candidates;
};
CQMS_WIRE_FIELDS(metaquery::SimilarityWeights) {
  v(m.feature, m.text, m.output);
}
CQMS_WIRE_FIELDS(metaquery::CandidateOptions) {
  v(m.use_lsh, m.lsh_min_log_size, m.probe_bands);
}
CQMS_WIRE_FIELDS(SimilaritySpec) { v(m.probe_text, m.weights, m.candidates); }

struct KeywordSpec {
  std::string words;
  bool match_all = true;
};
CQMS_WIRE_FIELDS(KeywordSpec) { v(m.words, m.match_all); }

CQMS_WIRE_FIELDS(metaquery::StructuralPattern) {
  v(m.required_tables, m.forbidden_tables, m.required_predicate_skeletons,
    m.required_aggregates, m.requires_subquery, m.requires_group_by,
    m.min_joins, m.max_joins, m.min_nesting_depth);
}
CQMS_WIRE_FIELDS(metaquery::RankingOptions) {
  v(m.w_similarity, m.w_popularity, m.w_quality, m.w_recency,
    m.exclude_flagged, m.min_similarity);
}

struct SearchSpec {
  std::optional<KeywordSpec> keyword;
  std::optional<std::string> substring;
  std::optional<FeatureSpec> feature;
  std::optional<metaquery::StructuralPattern> structure;
  std::optional<DataSpec> data;
  std::optional<SimilaritySpec> similarity;
  metaquery::RankingOptions ranking;
  metaquery::ResultOrder order = metaquery::ResultOrder::kScore;
  uint64_t limit = 0;
  /// Ask the server to run the planner with an ExecTrace attached and
  /// return it in SearchResult::trace (minor 1: absent on old clients
  /// decodes as false, old servers ignore it).
  bool want_trace = false;
};
CQMS_WIRE_FIELDS(SearchSpec) {
  v(m.keyword, m.substring, m.feature, m.structure, m.data, m.similarity,
    m.ranking, m.order, m.limit, SinceMinor{1}, m.want_trace);
}

struct SearchRequest {
  std::string viewer;
  SearchSpec spec;
};
CQMS_WIRE_FIELDS(SearchRequest) { v(m.viewer, m.spec); }

/// Wire form of obs::ExecTrace (generator + ordered counter/span pairs).
struct TraceSummary {
  std::string generator;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> spans_micros;
};
CQMS_WIRE_FIELDS(TraceSummary) {
  v(m.generator, m.counters, m.spans_micros);
}

struct SearchResult {
  struct Match {
    storage::QueryId id = storage::kInvalidQueryId;
    double similarity = 0;
    double score = 0;
  };
  std::vector<Match> matches;
  uint8_t generator = 0;  ///< metaquery::CandidateGenerator
  uint64_t candidates_considered = 0;
  /// Present iff the request set want_trace and the server supports
  /// minor 1.
  std::optional<TraceSummary> trace;
};
CQMS_WIRE_FIELDS(SearchResult::Match) { v(m.id, m.similarity, m.score); }
CQMS_WIRE_FIELDS(SearchResult) {
  v(m.matches, m.generator, m.candidates_considered, SinceMinor{1},
    m.trace);
}

/// Builds the in-process request from a spec. `probe` backs the
/// similarity predicate and must outlive the returned request (null =
/// spec has no similarity predicate). Used by the server handler and by
/// tests to run the byte-identical oracle in process.
metaquery::MetaQueryRequest ToMetaQueryRequest(const SearchSpec& spec,
                                               const storage::QueryRecord* probe);

// --- append ----------------------------------------------------------------

struct AppendRequest {
  std::string user;
  std::string sql;
  /// True: execute against the server's database and profile (§2.1).
  /// False: log-only import (historical logs, results unknown).
  bool execute = true;
};
CQMS_WIRE_FIELDS(AppendRequest) { v(m.user, m.sql, m.execute); }

struct AppendResult {
  storage::QueryId id = storage::kInvalidQueryId;
  bool succeeded = false;
  std::string error;
  uint64_t result_rows = 0;
  int64_t exec_micros = 0;
};
CQMS_WIRE_FIELDS(AppendResult) {
  v(m.id, m.succeeded, m.error, m.result_rows, m.exec_micros);
}

// --- small record ops ------------------------------------------------------

struct RewriteRequest {
  storage::QueryId id = storage::kInvalidQueryId;
  std::string new_text;
};
CQMS_WIRE_FIELDS(RewriteRequest) { v(m.id, m.new_text); }

struct AnnotateRequest {
  storage::QueryId id = storage::kInvalidQueryId;
  std::string author;
  std::string text;
  std::string fragment;
};
CQMS_WIRE_FIELDS(AnnotateRequest) { v(m.id, m.author, m.text, m.fragment); }

struct SetVisibilityRequest {
  std::string requester;
  storage::QueryId id = storage::kInvalidQueryId;
  storage::Visibility visibility = storage::Visibility::kGroup;
};
CQMS_WIRE_FIELDS(SetVisibilityRequest) {
  v(m.requester, m.id, m.visibility);
}

struct DeleteRequest {
  std::string requester;
  storage::QueryId id = storage::kInvalidQueryId;
  bool is_admin = false;
};
CQMS_WIRE_FIELDS(DeleteRequest) { v(m.requester, m.id, m.is_admin); }

struct RegisterUserRequest {
  std::string user;
  std::vector<std::string> groups;
};
CQMS_WIRE_FIELDS(RegisterUserRequest) { v(m.user, m.groups); }

// --- recommend / browse ----------------------------------------------------

struct RecommendRequest {
  std::string viewer;
  std::string sql_text;
  uint64_t k = 5;
};
CQMS_WIRE_FIELDS(RecommendRequest) { v(m.viewer, m.sql_text, m.k); }

struct RecommendationItem {
  storage::QueryId id = storage::kInvalidQueryId;
  double score = 0;
  double similarity = 0;
  std::string text;
  std::string diff;
  std::string annotation;
};
CQMS_WIRE_FIELDS(RecommendationItem) {
  v(m.id, m.score, m.similarity, m.text, m.diff, m.annotation);
}

struct RecommendResult {
  std::vector<RecommendationItem> items;
};
CQMS_WIRE_FIELDS(RecommendResult) { v(m.items); }

struct BrowseRequest {
  std::string viewer;
  uint64_t max_sessions = 20;
};
CQMS_WIRE_FIELDS(BrowseRequest) { v(m.viewer, m.max_sessions); }

struct ShowSessionRequest {
  std::string viewer;
  storage::SessionId session_id = -1;
};
CQMS_WIRE_FIELDS(ShowSessionRequest) { v(m.viewer, m.session_id); }

struct TextResult {
  std::string text;
};
CQMS_WIRE_FIELDS(TextResult) { v(m.text); }

// --- stats / admin ---------------------------------------------------------

struct OpStatsRow {
  uint8_t op = 0;
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t p50_micros = 0;
  uint64_t p99_micros = 0;
  uint64_t max_micros = 0;
};
CQMS_WIRE_FIELDS(OpStatsRow) {
  v(m.op, m.count, m.errors, m.bytes_in, m.bytes_out, m.p50_micros,
    m.p99_micros, m.max_micros);
}

struct StatsResult {
  std::string server_version;
  uint64_t uptime_micros = 0;
  uint64_t active_connections = 0;
  uint64_t total_connections = 0;
  uint64_t rejected_connections = 0;
  uint64_t protocol_errors = 0;
  uint64_t store_size = 0;
  uint64_t published_sequence = 0;
  std::vector<OpStatsRow> per_op;
  /// Durability / maintenance health (minor 1: decoding an old
  /// server's body leaves the defaults).
  bool durable_read_only = false;
  uint64_t checkpoint_failure_streak = 0;
  uint64_t checkpoints_backed_off = 0;
  uint64_t arena_garbage_bytes = 0;
  /// Replication (minor 2). role: 0 = standalone pre-minor-2 server,
  /// 1 = primary, 2 = follower.
  uint8_t role = 0;
  std::string primary_address;      ///< Follower only: who it follows.
  bool repl_connected = false;      ///< Follower: link to primary is up.
  uint64_t repl_applied_sequence = 0;   ///< Follower: applied through here.
  uint64_t repl_primary_sequence = 0;   ///< Follower: primary's last seq seen.
  uint64_t repl_followers = 0;          ///< Primary: live subscriptions.
  uint64_t repl_min_acked_sequence = 0; ///< Primary: slowest follower ack.
  uint64_t repl_backlog_bytes = 0;      ///< Primary: retained retired WAL.
};
CQMS_WIRE_FIELDS(StatsResult) {
  v(m.server_version, m.uptime_micros, m.active_connections,
    m.total_connections, m.rejected_connections, m.protocol_errors,
    m.store_size, m.published_sequence, m.per_op,
    SinceMinor{1}, m.durable_read_only, m.checkpoint_failure_streak,
    m.checkpoints_backed_off, m.arena_garbage_bytes,
    SinceMinor{2}, m.role, m.primary_address, m.repl_connected,
    m.repl_applied_sequence, m.repl_primary_sequence, m.repl_followers,
    m.repl_min_acked_sequence, m.repl_backlog_bytes);
}

struct MaintainRequest {
  bool run_mining = true;
};
CQMS_WIRE_FIELDS(MaintainRequest) { v(m.run_mining); }

// --- replication (protocol minor 2) ----------------------------------------
//
// A follower opens a normal connection, handshakes, then sends one
// kReplSubscribe request. The primary answers with ReplSubscribeResult
// and afterwards pushes kReplStream response frames that reuse the
// subscribe request id. Stream bodies start with a ReplStreamKind byte.
// The follower reports progress with fire-and-forget kReplAck requests
// (the empty OK responses are ignored); the primary uses the minimum
// acked sequence across followers to bound retired-WAL-segment
// retention.

struct ReplSubscribeRequest {
  /// Highest sequence already applied by the follower; the stream begins
  /// at from_sequence + 1. Zero asks for everything.
  uint64_t from_sequence = 0;
  std::string follower_name;
  /// Skip catch-up and bootstrap from a fresh snapshot regardless of
  /// from_sequence (set after the follower detects a gap or divergence).
  bool force_snapshot = false;
};
CQMS_WIRE_FIELDS(ReplSubscribeRequest) {
  v(m.from_sequence, m.follower_name, m.force_snapshot);
}

struct ReplSubscribeResult {
  /// True: a SnapshotBegin/Chunk/End sequence precedes live frames.
  bool snapshot_bootstrap = false;
  uint64_t primary_sequence = 0;
};
CQMS_WIRE_FIELDS(ReplSubscribeResult) {
  v(m.snapshot_bootstrap, m.primary_sequence);
}

enum class ReplStreamKind : uint8_t {
  kFrames = 1,
  kHeartbeat = 2,
  kSnapshotBegin = 3,
  kSnapshotChunk = 4,
  kSnapshotEnd = 5,
};

/// One WAL frame payload (varint sequence + op payload) plus its CRC as
/// computed on the primary; a mismatch on the follower means link or
/// primary-side corruption and forces a snapshot re-bootstrap.
struct ReplFramed {
  uint32_t crc32 = 0;
  std::string frame;
};
CQMS_WIRE_FIELDS(ReplFramed) { v(Fixed32(m.crc32), m.frame); }

struct ReplFrameBatch {
  std::vector<ReplFramed> frames;
  uint64_t primary_sequence = 0;
};
CQMS_WIRE_FIELDS(ReplFrameBatch) { v(m.frames, m.primary_sequence); }

struct ReplHeartbeat {
  uint64_t primary_sequence = 0;
};
CQMS_WIRE_FIELDS(ReplHeartbeat) { v(m.primary_sequence); }

struct ReplSnapshotBegin {
  /// WAL sequence the snapshot covers; live frames resume at covered + 1.
  uint64_t covered_sequence = 0;
  uint64_t total_bytes = 0;
  uint32_t crc32 = 0;  ///< CRC of the whole snapshot image.
};
CQMS_WIRE_FIELDS(ReplSnapshotBegin) {
  v(m.covered_sequence, m.total_bytes, Fixed32(m.crc32));
}

struct ReplSnapshotChunk {
  std::string data;
};
CQMS_WIRE_FIELDS(ReplSnapshotChunk) { v(m.data); }

struct ReplAckRequest {
  uint64_t acked_sequence = 0;
};
CQMS_WIRE_FIELDS(ReplAckRequest) { v(m.acked_sequence); }

/// Renders the canonical kNotPrimary message, "not primary; leader=host:port"
/// (or no leader suffix when the address is unknown).
std::string FormatNotPrimary(const std::string& leader);
/// Extracts "host:port" from a kNotPrimary message; empty if absent.
std::string ParseNotPrimaryLeader(const std::string& message);

// --- per-op types and named codecs -----------------------------------------

template <Op kOp>
struct OpTypes;
#define CQMS_NET_OP_TYPES(name, code, request, response, ...) \
  template <>                                                 \
  struct OpTypes<Op::k##name> {                               \
    using Request = request;                                  \
    using Response = response;                                \
  };
CQMS_NET_OPS(CQMS_NET_OP_TYPES)
#undef CQMS_NET_OP_TYPES

template <Op kOp>
using RequestOf = typename OpTypes<kOp>::Request;
template <Op kOp>
using ResponseOf = typename OpTypes<kOp>::Response;

/// Every body message. Each X has a named entry point pair,
/// EncodeX(BinaryWriter*, const X&) and DecodeX(BinaryReader*, X*), over
/// EncodeBody / DecodeBody.
#define CQMS_NET_MESSAGES(X)                                                \
  X(HelloRequest) X(HelloResponse) X(SearchRequest) X(SearchResult)         \
  X(AppendRequest) X(AppendResult) X(RewriteRequest) X(AnnotateRequest)     \
  X(SetVisibilityRequest) X(DeleteRequest) X(RegisterUserRequest)           \
  X(RecommendRequest) X(RecommendResult) X(BrowseRequest)                   \
  X(ShowSessionRequest) X(TextResult) X(StatsResult) X(MaintainRequest)     \
  X(ReplSubscribeRequest) X(ReplSubscribeResult) X(ReplFrameBatch)          \
  X(ReplHeartbeat) X(ReplSnapshotBegin) X(ReplSnapshotChunk)                \
  X(ReplAckRequest)

#define CQMS_NET_NAMED_CODEC(M)                                    \
  inline void Encode##M(BinaryWriter* w, const M& m) {             \
    EncodeBody(w, m);                                              \
  }                                                                \
  inline bool Decode##M(BinaryReader* r, M* m) { return DecodeBody(r, m); }
CQMS_NET_MESSAGES(CQMS_NET_NAMED_CODEC)
#undef CQMS_NET_NAMED_CODEC

}  // namespace cqms::net

#endif  // CQMS_NET_WIRE_H_
