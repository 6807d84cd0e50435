// Pure logic of the lab-traffic benchmark: the seeded request schedule,
// percentile and span arithmetic, and the output checks. Nothing here
// touches a socket or a process, so labbench_test.cc can drive it
// directly.

#ifndef CQMS_E2EBENCH_LAB_H_
#define CQMS_E2EBENCH_LAB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/wire.h"
#include "storage/query_store.h"

namespace labbench {

using cqms::storage::QueryId;

// --- requests and schedules ----------------------------------------------

/// Latency class a request reports under.
enum class OpClass : uint8_t {
  kSearch,
  kRecommend,
  kAppend,    ///< Append, executed or log-only.
  kWrite,     ///< Annotate, SetVisibility, Rewrite.
  kMaintain,  ///< Maintain(run_mining); always followed by a Checkpoint.
  kCheckpoint,
};
const char* OpClassName(OpClass c);

/// Which kind of Search a request is; keys the per-kind report lines.
enum class SearchKind : uint8_t {
  kKeyword,
  kFeature,
  kStructure,
  kKnn,
  kKeywordKnn,
  kSubstring,
  kData,
  kNone,  ///< Not a Search.
};
const char* SearchKindName(SearchKind k);

struct Request {
  /// Open loop: due time in microseconds after the phase starts.
  int64_t due_us = 0;
  /// Connection index the request is sent on.
  uint32_t conn = 0;
  cqms::net::Op op = cqms::net::Op::kSearch;
  OpClass cls = OpClass::kSearch;
  SearchKind kind = SearchKind::kNone;
  /// Viewer (Search, Recommend), user (Append), author (Annotate) or
  /// requester (SetVisibility).
  std::string user;
  cqms::net::SearchSpec spec;
  /// Recommend text, Append statement, Rewrite's new text, or the
  /// Annotate note.
  std::string text;
  bool execute = true;
  QueryId target = cqms::storage::kInvalidQueryId;
  cqms::storage::Visibility visibility = cqms::storage::Visibility::kGroup;
};

/// Request payload (envelope + body) with the given request id.
std::string EncodeRequest(const Request& r, uint64_t request_id);

/// What a schedule draws its inputs from: a logged history plus, for
/// writes, a second statement stream that has not been logged yet.
struct LogPools {
  /// The setup log; read probes are drawn from its records. Borrowed.
  const cqms::storage::QueryStore* log = nullptr;
  size_t num_users = 0;
  /// Ids of logged queries that parsed and executed, in log order.
  std::vector<QueryId> ok_ids;
  /// The subset of ok_ids whose output summary holds a sample row.
  std::vector<QueryId> with_rows;
  /// Owner of every logged id (index = id).
  std::vector<std::string> owner;
  /// Statements of the second stream in submission order (typos kept),
  /// with their users.
  std::vector<std::pair<std::string, std::string>> stream;
  /// Indices into `stream` of statements that executed cleanly.
  std::vector<size_t> stream_ok;
  /// Verbatim dashboard statements re-run by the write mix.
  std::vector<std::string> dashboards;
};

/// Derives the read pools from `store` (the setup log) and the write
/// pools from `stream` (the second generator run's store).
LogPools BuildPools(const cqms::storage::QueryStore& store,
                    const cqms::storage::QueryStore& stream,
                    size_t num_users);

/// Draws request contents. Reads follow a Zipf skew over viewers; read
/// probes and write targets come from the pools; writes walk the second
/// statement stream in order (wrapping around).
class RequestMaker {
 public:
  RequestMaker(const LogPools* pools, uint64_t seed);
  Request Read();
  Request Write();

 private:
  const cqms::storage::QueryRecord& PickOk();
  std::string Viewer();
  QueryId RecentId();
  const std::pair<std::string, std::string>& NextStream();

  const LogPools* pools_;
  cqms::Rng rng_;
  size_t stream_pos_ = 0;
};

struct PhasePlan {
  double rate_ops_s = 0;      ///< Open loop (Poisson arrivals); 0 = closed.
  int64_t duration_us = 0;    ///< Open loop only.
  size_t op_count = 0;        ///< Closed loop only.
  size_t conns = 1;
  double read_share = 1.0;
  /// Open loop only: Maintain+Checkpoint cycles at these fractions of
  /// the phase, on connection 0.
  std::vector<double> maintain_at;
};

/// Builds the request list of one phase. Deterministic in (pools, seed).
std::vector<Request> BuildSchedule(RequestMaker* maker, const PhasePlan& plan,
                                   uint64_t seed);

/// Byte image of a schedule (due time, connection and payload of every
/// request) — what the determinism test compares.
std::string ScheduleBytes(const std::vector<Request>& reqs);

// --- percentiles -----------------------------------------------------------

/// Nearest-rank percentile over successful latencies plus failures,
/// where every failure ranks above every latency: a rank that falls on a
/// failure reads `failed_value` (the phase's time limit).
struct Percentiles {
  size_t samples = 0;   ///< Successes + failures.
  size_t failures = 0;
  double p50 = 0;
  double p99 = 0;
  bool p50_failed = false;  ///< The rank fell on a failure.
  bool p99_failed = false;
  /// Samples ranked strictly above the p99 rank.
  size_t beyond_p99 = 0;
};
Percentiles ComputePercentiles(std::vector<double> latencies, size_t failures,
                               double failed_value);

/// Nearest-rank value at `p` (0..100) of ascending `sorted`; 0 if empty.
double NearestRank(const std::vector<double>& sorted, double p);

double Median(std::vector<double> v);

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index into the span list; -1 for a root.
  uint64_t request_id = 0;
};

struct SelfTime {
  size_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  ///< Duration minus the union of child intervals.
};

/// Per-name self-time totals. A child interval is clipped to its parent
/// and overlapping children are counted once.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

// --- output checks ---------------------------------------------------------
//
// Each returns OK or a status naming the first mismatch.

struct ScoredId {
  QueryId id = cqms::storage::kInvalidQueryId;
  double score = 0;
};

/// Same ids in the same order, scores equal within 1e-9 (relative).
cqms::Status CheckRanked(const std::vector<ScoredId>& expected,
                         const std::vector<ScoredId>& got);

struct AckedAppend {
  QueryId id = cqms::storage::kInvalidQueryId;
  std::string text;
};

/// Every acked append is present in `reopened` with its text.
cqms::Status CheckAckedAppends(const cqms::storage::QueryStore& reopened,
                               const std::vector<AckedAppend>& acked);

/// The replica's store size and applied sequence equal the primary's.
cqms::Status CheckReplica(uint64_t primary_size, uint64_t primary_sequence,
                          uint64_t replica_size, uint64_t replica_sequence);

/// final == initial + acked appends.
cqms::Status CheckFinalSize(uint64_t initial, uint64_t acked_appends,
                            uint64_t final_size);

// --- metrics exposition ----------------------------------------------------

/// Parses MetricsDump text ("name value" lines) into a map.
std::map<std::string, double> ParseExposition(const std::string& text);

/// after[name] - before[name], treating absent series as 0.
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

}  // namespace labbench

#endif  // CQMS_E2EBENCH_LAB_H_
