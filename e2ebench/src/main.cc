// labbench: end-to-end lab-traffic benchmark for cqms_serverd.
//
// One run = set-up (seeded log built in process, checkpointed, daemon
// cold-started on it; repeated --setups times, median reported), a
// fixed-rate open-loop phase (Poisson arrivals, latency from due time),
// a closed-loop peak phase over a fixed op count and, on a write
// workload, a maintenance phase. Outputs are
// checked; a failed check exits 2 and prints no metrics. The last
// stdout line is one JSON object (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). See e2ebench/README.md.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cqms.h"
#include "lab.h"
#include "load.h"
#include "netclient/client.h"
#include "sql/parser.h"
#include "storage/record_builder.h"
#include "workload/synthetic.h"

namespace fs = std::filesystem;
namespace net = cqms::net;
namespace storage = cqms::storage;
using cqms::Status;
using namespace labbench;

namespace {

// Lab shape shared by every workload. 40 users in 5 groups gives each
// group 8 members, so group visibility filters a real share of the log.
// The lake DB holds 30 rows per table so joins stay cheap next to the
// logging and search work being measured.
constexpr size_t kUsers = 40;
constexpr size_t kGroups = 5;
constexpr size_t kDemoRows = 30;
/// Peak phase: requests in flight on each connection.
constexpr size_t kDepth = 4;
/// Read-only workloads: sampled reads compared with the in-process Cqms.
constexpr size_t kCheckSamples = 200;
/// A run whose generator lateness p99 exceeds this is invalid.
constexpr double kLateLimitMs = 50;
/// Where in the maintenance phase its Maintain+Checkpoint cycle is due.
constexpr double kMaintainAt = 0.2;

/// The per-workload settings; run.py passes every one from config.json.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string serverd;
  std::string run_dir;
  size_t workers = 0;
  size_t sessions = 0;
  size_t stream_sessions = 0;
  double read_share = 0;
  double rate = 0;
  double fixed_share = 0;
  size_t warmup_ops = 0;
  size_t peak_ops = 0;
  size_t conns = 0;
  /// Derived from read_share. A write workload also runs a `--follow`
  /// replica and a maintenance phase: replication and maintenance are
  /// write-path work that a read-only log never does.
  bool writes = false;
  size_t setups = 0;
  std::map<std::string, double> limits_ms;  // op class -> p99 limit
};

[[noreturn]] void Die(const std::string& msg, int code = 1) {
  std::fprintf(stderr, "labbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::exit(code);
}

Args ParseArgs(int argc, char** argv) {
  if (argc % 2 == 0) Die("flags come in --name value pairs", 64);
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto take = [&](const std::string& name) {
    auto it = flags.find("--" + name);
    if (it == flags.end()) Die("missing --" + name, 64);
    std::string v = it->second;
    flags.erase(it);
    return v;
  };
  auto num = [&](const std::string& name) { return std::strtod(take(name).c_str(), nullptr); };
  auto whole = [&](const std::string& name) {
    return static_cast<size_t>(std::strtoull(take(name).c_str(), nullptr, 10));
  };
  Args a;
  a.workload = take("workload");
  a.seed = std::strtoull(take("seed").c_str(), nullptr, 10);
  a.seconds = std::atoi(take("seconds").c_str());
  a.trace = take("trace") == "1";
  a.serverd = take("serverd");
  a.run_dir = take("run-dir");
  a.workers = whole("workers");
  a.sessions = whole("sessions");
  a.stream_sessions = whole("stream-sessions");
  a.read_share = num("read-share");
  a.rate = num("rate");
  a.fixed_share = num("fixed-share");
  a.warmup_ops = whole("warmup-ops");
  a.peak_ops = whole("peak-ops");
  a.conns = whole("conns");
  a.setups = whole("setups");
  for (auto it = flags.begin(); it != flags.end();) {
    const std::string& k = it->first;
    if (k.rfind("--limit-", 0) != 0 || k.size() <= 11 || k.compare(k.size() - 3, 3, "-ms") != 0) {
      Die("unknown flag " + k, 64);
    }
    a.limits_ms[k.substr(8, k.size() - 11)] = std::strtod(it->second.c_str(), nullptr);
    it = flags.erase(it);
  }
  if (a.seconds <= 0 || a.setups == 0 || a.sessions == 0) {
    Die("--seconds, --setups and --sessions must be positive", 64);
  }
  if (a.conns == 0 || a.conns > 4) Die("--conns must be 1..4", 64);
  a.writes = a.read_share < 1.0;
  if (a.writes && a.stream_sessions == 0) Die("a write mix needs --stream-sessions", 64);
  return a;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The write stream: a second seeded generator run whose statements the
/// write mix logs in order. It is input preparation, built once before
/// the timed set-ups; read-only workloads leave it empty.
struct WriteStream {
  cqms::SimulatedClock clock{1'700'000'000'000'000};
  std::unique_ptr<cqms::Cqms> cqms;

  explicit WriteStream(const Args& a) {
    cqms::CqmsOptions opts;
    opts.clock = &clock;
    cqms = std::make_unique<cqms::Cqms>(opts);
    if (a.stream_sessions == 0) return;
    Status s = cqms::workload::PopulateLakeDatabase(cqms->database(), kDemoRows);
    if (!s.ok()) Die("PopulateLakeDatabase: " + s.ToString());
    cqms::workload::WorkloadOptions w;
    w.num_users = kUsers;
    w.num_groups = kGroups;
    w.num_sessions = a.stream_sessions;
    w.seed = a.seed ^ 0x73747265616dull;
    cqms::workload::RegisterUsers(cqms->store(), w);
    cqms::workload::GenerateLog(&cqms->profiler(), cqms->store(), &clock, w);
  }
  WriteStream(const WriteStream&) = delete;  // cqms points at clock
  WriteStream& operator=(const WriteStream&) = delete;
};

/// Everything one set-up produces.
struct Lab {
  std::unique_ptr<cqms::SimulatedClock> clock;
  std::unique_ptr<cqms::Cqms> log;  ///< The setup log; the explore oracle.
  std::string dir;
  std::unique_ptr<Daemon> primary;
  std::unique_ptr<Daemon> replica;
  std::unique_ptr<cqms::netclient::CqmsClient> control;
  std::unique_ptr<cqms::netclient::CqmsClient> replica_control;
  double generate_s = 0;
  double checkpoint_s = 0;
  double bootstrap_s = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshot_sequence = 0;  ///< WAL sequence the set-up checkpoint covers.
  uint64_t initial_size = 0;

  void Teardown() {
    control.reset();
    replica_control.reset();
    replica.reset();
    primary.reset();
    log.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

std::unique_ptr<cqms::netclient::CqmsClient> Control(uint16_t port) {
  auto c = cqms::netclient::CqmsClient::Connect("127.0.0.1", port);
  if (!c.ok()) Die("control connect: " + c.status().ToString());
  return std::move(*c);
}

net::StatsResult StatsOf(cqms::netclient::CqmsClient* c) {
  auto s = c->Stats();
  if (!s.ok()) Die("Stats: " + s.status().ToString());
  return *s;
}

std::map<std::string, double> Scrape(cqms::netclient::CqmsClient* c) {
  if (c == nullptr) return {};
  auto m = c->MetricsDump();
  if (!m.ok()) Die("MetricsDump: " + m.status().ToString());
  return ParseExposition(*m);
}

/// One timed set-up: log build, checkpoint, daemon restore up to the
/// first answered request, and the replica's bootstrap where there is one.
void SetupOnce(const Args& a, size_t k, Lab* lab) {
  lab->dir = a.run_dir + "/primary-" + std::to_string(k);
  fs::create_directories(lab->dir);

  // 1. The lab's history, generated with read views off.
  int64_t t = NowNs();
  lab->clock = std::make_unique<cqms::SimulatedClock>(1'600'000'000'000'000);
  cqms::CqmsOptions opts;
  opts.clock = lab->clock.get();
  lab->log = std::make_unique<cqms::Cqms>(opts);
  Status s = lab->log->EnableDurability(lab->dir);
  if (!s.ok()) Die("EnableDurability: " + s.ToString());
  s = cqms::workload::PopulateLakeDatabase(lab->log->database(), kDemoRows);
  if (!s.ok()) Die("PopulateLakeDatabase: " + s.ToString());
  cqms::workload::WorkloadOptions w;
  w.num_users = kUsers;
  w.num_groups = kGroups;
  w.num_sessions = a.sessions;
  w.seed = a.seed;
  cqms::workload::RegisterUsers(lab->log->store(), w);
  cqms::workload::GenerateLog(&lab->log->profiler(), lab->log->store(),
                              lab->clock.get(), w);
  // Assumed shares, not measured ones: 10% private and 20% public, so
  // Searches meet all three visibility classes; the rest keep the
  // default group visibility.
  cqms::Rng vis(a.seed ^ 0x76697369ull);
  const storage::QueryStore& store = *lab->log->store();
  for (QueryId id = 0; id < static_cast<QueryId>(store.size()); ++id) {
    const double u = vis.UniformDouble();
    if (u >= 0.3) continue;
    const std::string owner = store.Get(id)->user;
    s = lab->log->SetVisibility(owner, id,
                                u < 0.1 ? storage::Visibility::kPrivate
                                        : storage::Visibility::kPublic);
    if (!s.ok()) Die("SetVisibility: " + s.ToString());
  }
  lab->generate_s = static_cast<double>(NowNs() - t) / 1e9;

  // 2. Checkpoint it into the durable directory the daemon will open.
  t = NowNs();
  s = lab->log->Checkpoint();
  if (!s.ok()) Die("Checkpoint: " + s.ToString());
  lab->checkpoint_s = static_cast<double>(NowNs() - t) / 1e9;
  lab->snapshot_bytes = fs::file_size(lab->dir + "/snapshot.cqms");
  lab->snapshot_sequence = lab->log->durable()->last_sequence();
  lab->initial_size = store.size();

  // 3. Cold-start the daemon on the checkpoint.
  const std::string workers = std::to_string(a.workers);
  auto primary = Daemon::Spawn(
      a.serverd,
      {"--durability-dir", lab->dir, "--demo-rows", std::to_string(kDemoRows),
       "--workers", workers, "--idle-timeout-ms", "0", "--log-level", "warn"},
      lab->dir + ".primary.log", 120'000,
      a.writes ? DaemonCpus::kAllButLast : DaemonCpus::kAll);
  if (!primary.ok()) Die("primary: " + primary.status().ToString());
  lab->primary = std::move(*primary);
  lab->control = Control(lab->primary->port());
  const net::StatsResult st = StatsOf(lab->control.get());
  if (st.store_size != lab->initial_size) {
    Die("daemon restored " + std::to_string(st.store_size) + " records, expected " +
        std::to_string(lab->initial_size), 2);
  }

  // 4. Replica bootstrap (ingest).
  if (a.writes) {
    t = NowNs();
    auto replica = Daemon::Spawn(
        a.serverd,
        {"--follow", "127.0.0.1:" + std::to_string(lab->primary->port()),
         "--workers", workers, "--idle-timeout-ms", "0", "--log-level", "warn"},
        lab->dir + ".replica.log", 120'000, DaemonCpus::kLast);
    if (!replica.ok()) Die("replica: " + replica.status().ToString());
    lab->replica = std::move(*replica);
    lab->replica_control = Control(lab->replica->port());
    const int64_t deadline = NowNs() + 120'000'000'000;
    while (StatsOf(lab->replica_control.get()).store_size != lab->initial_size) {
      if (NowNs() > deadline) Die("replica did not bootstrap");
      usleep(2000);
    }
    lab->bootstrap_s = static_cast<double>(NowNs() - t) / 1e9;
  }
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void PrintLine(const Metric& m, const std::string& note = "") {
  std::printf("%-40s %14s %-6s n=%zu%s%s\n", m.name.c_str(), Num(m.value).c_str(),
              m.unit.c_str(), m.samples, note.empty() ? "" : "  ", note.c_str());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// What a failed, refused or timed-out op ranks as in a percentile: the
/// open-loop phases' time limit.
constexpr double kFailedMs = 30'000;

/// Latency percentiles of the outcomes matching `pred`.
template <typename Pred>
Percentiles LatencyOf(const std::vector<Outcome>& out, const std::vector<Request>& reqs,
                      Pred pred) {
  std::vector<double> lat;
  size_t failed = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!pred(reqs[i])) continue;
    if (out[i].ok) {
      lat.push_back(out[i].latency_ms());
    } else {
      ++failed;
    }
  }
  return ComputePercentiles(std::move(lat), failed, kFailedMs);
}

void PrintPercentiles(const std::string& base, const Percentiles& p, double limit_ms) {
  Metric m50{base + "_p50_ms", p.p50, "ms", p.samples};
  Metric m99{base + "_p99_ms", p.p99, "ms", p.samples};
  PrintLine(m50, p.p50_failed ? "(rank falls on a failure)" : "");
  std::string note = "beyond=" + std::to_string(p.beyond_p99) +
                     " failures=" + std::to_string(p.failures);
  if (p.p99_failed) note += " (rank falls on a failure)";
  if (limit_ms > 0 && p.samples > 0) {
    const bool pass = !p.p99_failed && p.p99 <= limit_ms;
    note += std::string(" limit=") + Num(limit_ms) + "ms " + (pass ? "PASS" : "FAIL");
  }
  PrintLine(m99, note);
}

// In-process answer to one Search or Recommend, from the log the
// daemon's snapshot was written from. Recommend mirrors the server's
// handler: over-fetch k*4+8 similar queries, drop unparsable ones and
// fingerprint duplicates, keep k = 5.
std::vector<ScoredId> Oracle(cqms::Cqms* log, const Request& r) {
  std::vector<ScoredId> out;
  if (r.op == net::Op::kSearch) {
    storage::QueryRecord probe;
    const storage::QueryRecord* probe_ptr = nullptr;
    if (r.spec.similarity.has_value()) {
      probe = storage::BuildRecordFromText(r.spec.similarity->probe_text, r.user, 0,
                                           storage::SignatureMode::kTransient);
      probe_ptr = &probe;
    }
    auto resp = log->Search(r.user, net::ToMetaQueryRequest(r.spec, probe_ptr));
    for (const auto& m : resp.matches) out.push_back({m.id, m.score});
    return out;
  }
  storage::QueryRecord probe = storage::BuildRecordFromText(
      r.text, r.user, 0, storage::SignatureMode::kTransient);
  cqms::metaquery::MetaQueryRequest mreq;
  mreq.SimilarTo(probe);
  mreq.Limit(5 * 4 + 8);
  auto resp = log->Search(r.user, mreq);
  std::vector<uint64_t> seen;
  for (const auto& m : resp.matches) {
    if (out.size() >= 5) break;
    const storage::QueryRecord* rec = log->store()->Get(m.id);
    if (rec == nullptr || rec->parse_failed()) continue;
    if (std::find(seen.begin(), seen.end(), rec->fingerprint) != seen.end()) continue;
    seen.push_back(rec->fingerprint);
    out.push_back({m.id, m.score});
  }
  return out;
}

void CheckOrDie(const Status& s, const std::string& what) {
  if (!s.ok()) {
    std::printf("CHECK FAILED (%s): %s\n", what.c_str(), s.ToString().c_str());
    Die("output check failed: " + what, 2);
  }
}

bool IsUserOp(const Request& r) {
  return r.cls != OpClass::kMaintain && r.cls != OpClass::kCheckpoint;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  a.run_dir += "/" + a.workload + "-" + std::to_string(getpid());
  fs::remove_all(a.run_dir);
  fs::create_directories(a.run_dir);

  // --- set-up, repeated; the last one is measured --------------------------
  // setup_s is the median over set-ups. The write stream and the request
  // pools are input preparation, so they stay outside the timed span.
  const WriteStream stream(a);
  const size_t setups = a.trace ? 1 : a.setups;
  std::vector<double> setup_times, restore_times;
  Lab lab;
  for (size_t k = 0; k < setups; ++k) {
    lab.Teardown();
    const int64_t t0 = NowNs();
    SetupOnce(a, k, &lab);
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    restore_times.push_back(lab.primary->spawn_to_listening_s());
  }
  const LogPools pools = BuildPools(*lab.log->store(), *stream.cqms->store(), kUsers);
  if (pools.ok_ids.empty() || pools.with_rows.empty()) {
    Die("generated log has no clean queries");
  }
  if (a.writes && pools.stream_ok.empty()) Die("write stream has no clean statements");

  // --- schedules -------------------------------------------------------------
  // Every schedule is built up front from the seed. The fixed-rate phase
  // lasts fixed_share of --seconds and the maintenance phase, where there
  // is one, the rest; the peak phase runs a fixed op count.
  RequestMaker maker(&pools, a.seed * 0x9e3779b97f4a7c15ull + 1);
  const PhasePlan warm_plan{0, 0, a.warmup_ops, a.conns, a.read_share, {}};
  const PhasePlan fixed_plan{a.rate, static_cast<int64_t>(a.seconds * a.fixed_share * 1e6), 0,
                             a.conns, a.read_share, {}};
  const PhasePlan peak_plan{0, 0, a.peak_ops, a.conns, a.read_share, {}};
  std::vector<Request> warm = BuildSchedule(&maker, warm_plan, a.seed + 101);
  std::vector<Request> fixed = BuildSchedule(&maker, fixed_plan, a.seed + 202);
  std::vector<Request> peak = BuildSchedule(&maker, peak_plan, a.seed + 203);
  // The maintenance phase (ingest) comes after the peak phase: one more
  // fixed-rate phase with a Maintain+Checkpoint cycle in it. Keeping the
  // cycle out of the other phases keeps their figures steady; its own
  // stall, replica lag and miner work are reported apart.
  std::vector<Request> maint;
  if (a.writes) {
    PhasePlan maint_plan = fixed_plan;
    maint_plan.duration_us = static_cast<int64_t>(a.seconds * (1 - a.fixed_share) * 1e6);
    maint_plan.maintain_at = {kMaintainAt};
    maint = BuildSchedule(&maker, maint_plan, a.seed + 404);
  }
  for (std::vector<Request>* reqs : {&warm, &fixed, &peak, &maint}) {
    for (Request& q : *reqs) q.spec.want_trace = a.trace;
  }

  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < a.conns; ++c) {
    auto conn = Conn::Open(lab.primary->port());
    if (!conn.ok()) Die("connect: " + conn.status().ToString());
    conns.push_back(std::move(*conn));
  }
  std::unique_ptr<Conn> probe_conn;
  ReplicaProbe probe;
  if (lab.replica != nullptr) {
    auto conn = Conn::Open(lab.replica->port());
    if (!conn.ok()) Die("replica connect: " + conn.status().ToString());
    probe_conn = std::move(*conn);
    probe.conn = probe_conn.get();
  }
  ReplicaProbe* const probe_ptr = lab.replica != nullptr ? &probe : nullptr;

  auto spinners = std::make_unique<IdleSpinners>();
  PinGenerator();

  // --- phases ----------------------------------------------------------------
  // Warm-up (closed loop, depth 1): fills caches and lazy state; not
  // reported. Then the fixed-rate open loop, then the closed-loop peak.
  PhaseConfig cfg;
  cfg.open_loop = false;
  cfg.depth = 1;
  cfg.first_request_id = 1;
  const PhaseResult warm_res = RunPhase(conns, warm, cfg, nullptr);

  const auto m0 = Scrape(lab.control.get());
  const auto r0 = Scrape(lab.replica_control.get());
  cfg.open_loop = true;
  cfg.keep_ranked = !a.writes;
  cfg.timeout_ns = static_cast<int64_t>(kFailedMs * 1e6);
  cfg.first_request_id += warm.size();
  const PhaseResult fixed_res = RunPhase(conns, fixed, cfg, probe_ptr);
  const net::StatsResult stats_fixed = StatsOf(lab.control.get());

  cfg.open_loop = false;
  cfg.depth = kDepth;
  cfg.keep_ranked = false;
  cfg.timeout_ns = 120'000'000'000;
  cfg.first_request_id += fixed.size();
  const PhaseResult peak_res = RunPhase(conns, peak, cfg, nullptr);
  cfg.first_request_id += peak.size();
  const double rss_mb = static_cast<double>(lab.primary->PeakRssKb()) / 1024.0;

  // The replica must reach the primary's store size and WAL sequence. The
  // primary's sequence is the set-up snapshot's plus every WAL record the
  // daemon appended since it started (cqms_wal_appends_total).
  if (lab.replica != nullptr) {
    net::StatsResult ps, rs;
    const int64_t deadline = NowNs() + 60'000'000'000;
    uint64_t primary_seq = 0;
    do {
      ps = StatsOf(lab.control.get());
      primary_seq = lab.snapshot_sequence + static_cast<uint64_t>(ParseExposition(
          *lab.control->MetricsDump())["cqms_wal_appends_total"]);
      rs = StatsOf(lab.replica_control.get());
      if (rs.store_size == ps.store_size && rs.repl_applied_sequence == primary_seq) break;
      usleep(2000);
    } while (NowNs() < deadline);
    CheckOrDie(CheckReplica(ps.store_size, primary_seq, rs.store_size,
                            rs.repl_applied_sequence),
               "replica convergence");
  }

  // The follower replays a maintenance cycle one frame per publish, which
  // takes far longer than the phase; its lag is sampled for 2 s after
  // the last due time, and appends not covered by then count as
  // failures in maintain.repl_lag_*.
  PhaseResult maint_res;
  if (!maint.empty()) {
    cfg.open_loop = true;
    cfg.depth = 1;
    cfg.timeout_ns = 2'000'000'000;
    maint_res = RunPhase(conns, maint, cfg, probe_ptr);
    cfg.first_request_id += maint.size();
  }
  const double rss_after_maint_mb = static_cast<double>(lab.primary->PeakRssKb()) / 1024.0;
  const auto m2 = Scrape(lab.control.get());
  const auto r2 = Scrape(lab.replica_control.get());
  // The replica has served its purpose; stop its replay now.
  lab.replica_control.reset();
  lab.replica.reset();

  // Tracing overhead: identical Searches with want_trace off and on,
  // alternating on one connection, closed loop.
  double trace_overhead_pct = 0;
  size_t overhead_samples = 0;
  if (a.trace) {
    std::vector<Request> ab;
    for (const Request& r : fixed) {
      if (r.op != net::Op::kSearch) continue;
      for (bool on : {false, true}) {
        ab.push_back(r);
        ab.back().conn = 0;
        ab.back().spec.want_trace = on;
      }
      if (ab.size() >= 800) break;
    }
    if (!ab.empty()) {
      PhaseConfig ab_cfg;
      ab_cfg.open_loop = false;
      ab_cfg.depth = 1;
      ab_cfg.first_request_id = cfg.first_request_id;
      std::vector<std::unique_ptr<Conn>> one;
      one.push_back(std::move(conns[0]));
      PhaseResult ab_res = RunPhase(one, ab, ab_cfg, nullptr);
      conns[0] = std::move(one[0]);
      std::vector<double> off, on;
      for (size_t i = 0; i < ab.size(); ++i) {
        if (!ab_res.out[i].ok) continue;
        (ab[i].spec.want_trace ? on : off).push_back(ab_res.out[i].latency_ms());
      }
      const double p_off = Median(off);
      trace_overhead_pct = Ratio(Median(on) - p_off, p_off) * 100;
      overhead_samples = std::min(on.size(), off.size());
    }
  }

  spinners.reset();

  // --- end-to-end accounting -------------------------------------------------
  std::vector<AckedAppend> acked;
  // The measured phases.
  const std::vector<std::pair<const std::vector<Request>*, const PhaseResult*>> measured = {
      {&fixed, &fixed_res}, {&peak, &peak_res}, {&maint, &maint_res}};
  auto with_warm = measured;
  with_warm.emplace_back(&warm, &warm_res);
  for (const auto& [reqs, res] : with_warm) {
    for (size_t i = 0; i < reqs->size(); ++i) {
      if ((*reqs)[i].op == net::Op::kAppend && res->out[i].ok) {
        acked.push_back({res->out[i].append_id, (*reqs)[i].text});
      }
    }
  }
  size_t attempted = 0;
  size_t failed = 0;
  for (const auto& [reqs, res] : measured) {
    attempted += reqs->size();
    for (const Outcome& o : res->out) failed += o.ok ? 0 : 1;
  }
  for (const Outcome& o : warm_res.out) {
    if (!o.ok) Die("warm-up op failed with status " + std::to_string(static_cast<int>(o.code)));
  }

  // Generator lateness (validity guard).
  std::vector<double> late;
  for (const PhaseResult* res : {&fixed_res, static_cast<const PhaseResult*>(&maint_res)}) {
    for (const Outcome& o : res->out) {
      if (o.sent) late.push_back(static_cast<double>(o.encode_start_ns - o.due_ns) / 1e6);
    }
  }
  std::sort(late.begin(), late.end());
  const double late_p99 = NearestRank(late, 99);

  auto cls_is = [](OpClass c) { return [c](const Request& r) { return r.cls == c; }; };
  const Percentiles op_p = LatencyOf(fixed_res.out, fixed, IsUserOp);
  const Percentiles search_p = LatencyOf(fixed_res.out, fixed, cls_is(OpClass::kSearch));
  const Percentiles rec_p = LatencyOf(fixed_res.out, fixed, cls_is(OpClass::kRecommend));
  const Percentiles append_p = LatencyOf(fixed_res.out, fixed, cls_is(OpClass::kAppend));
  const Percentiles write_p = LatencyOf(fixed_res.out, fixed, cls_is(OpClass::kWrite));

  // Maintain+Checkpoint cycles: Maintain due time to Checkpoint decoded.
  std::vector<double> cycles_s;
  double cycle_rt_ms = 0;
  for (size_t i = 0; i < maint.size(); ++i) {
    if (maint[i].cls != OpClass::kMaintain) continue;
    size_t j = i + 1;
    while (j < maint.size() && maint[j].cls != OpClass::kCheckpoint) ++j;
    if (j == maint.size()) continue;
    const Outcome& m = maint_res.out[i];
    const Outcome& c = maint_res.out[j];
    if (!m.ok || !c.ok) continue;
    cycles_s.push_back(static_cast<double>(c.done_ns - m.due_ns) / 1e9);
    cycle_rt_ms += static_cast<double>(c.recv_ns - m.send_end_ns) / 1e6;
  }
  cycle_rt_ms = Ratio(cycle_rt_ms, static_cast<double>(cycles_s.size()));

  // Replica lag: ack of each Append until the first replica sample whose
  // store covers its id.
  auto lag_of = [&](const std::vector<Request>& reqs, const PhaseResult& res) {
    std::vector<double> lag_ms;
    size_t missing = 0;
    for (size_t i = 0; i < reqs.size() && a.writes; ++i) {
      const Outcome& o = res.out[i];
      if (reqs[i].op != net::Op::kAppend || !o.ok) continue;
      auto it = std::partition_point(
          probe.samples.begin(), probe.samples.end(),
          [&](const ReplicaProbe::Sample& s) {
            return s.store_size <= static_cast<uint64_t>(o.append_id);
          });
      if (it == probe.samples.end()) {
        ++missing;
        continue;
      }
      lag_ms.push_back(std::max<double>(0, static_cast<double>(it->t_ns - o.recv_ns) / 1e6));
    }
    return ComputePercentiles(lag_ms, missing, kFailedMs);
  };
  const Percentiles lag_p = lag_of(fixed, fixed_res);
  const Percentiles maint_lag_p = lag_of(maint, maint_res);
  const Percentiles maint_op_p = LatencyOf(maint_res.out, maint, IsUserOp);

  // --- output checks -----------------------------------------------------------
  size_t checked = 0;
  if (!a.writes) {
    // Sampled reads equal the in-process Cqms the log was built in.
    cqms::Rng pick(a.seed ^ 0x636865636bull);
    std::vector<size_t> reads;
    // Output summaries are a cache the snapshot does not persist, so a
    // cold-started daemon answers data-example Searches without them;
    // the in-process log still has them. Those Searches are not compared.
    for (size_t i = 0; i < fixed.size(); ++i) {
      if (fixed_res.out[i].ok && fixed[i].kind != SearchKind::kData) reads.push_back(i);
    }
    for (size_t n = 0; n < kCheckSamples && !reads.empty(); ++n) {
      const size_t i = reads[pick.Uniform(reads.size())];
      CheckOrDie(CheckRanked(Oracle(lab.log.get(), fixed[i]), fixed_res.out[i].ranked),
                 std::string(OpClassName(fixed[i].cls)) + " " +
                     SearchKindName(fixed[i].kind) + " vs in-process Cqms");
      ++checked;
    }
  }
  const net::StatsResult final_stats = StatsOf(lab.control.get());
  CheckOrDie(CheckFinalSize(lab.initial_size, acked.size(), final_stats.store_size),
             "final store size");
  uint64_t disk_bytes = 0;
  uint64_t final_size = final_stats.store_size;
  if (a.writes) {
    // Crash the primary and reopen its directory in process.
    lab.control.reset();
    lab.primary->Kill();
    cqms::Cqms reopened;
    Status s = reopened.EnableDurability(lab.dir);
    CheckOrDie(s, "reopen primary directory after SIGKILL");
    CheckOrDie(CheckAckedAppends(*reopened.store(), acked), "acked appends after SIGKILL");
    CheckOrDie(reopened.Checkpoint(), "final checkpoint");
    disk_bytes = DirBytes(lab.dir);
    checked += acked.size() + 1;
  } else {
    CheckOrDie(lab.control->Checkpoint(), "final checkpoint");
    disk_bytes = DirBytes(lab.dir);
    lab.control.reset();
    lab.primary->Kill();
  }
  checked += 1;

  // --- report ----------------------------------------------------------------
  std::printf("# labbench workload=%s seed=%llu seconds=%d trace=%d workers=%zu "
              "conns=%zu depth=%zu rate=%g/s log=%llu queries\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, a.workers, a.conns, kDepth, a.rate,
              static_cast<unsigned long long>(lab.initial_size));
  std::printf("# fixed-rate phase %.2fs (%zu ops), peak phase %zu ops; %zu output checks "
              "passed\n",
              static_cast<double>(fixed_plan.duration_us) / 1e6, fixed.size(), peak.size(),
              checked);
  if (late_p99 > kLateLimitMs) {
    std::printf("INVALID: generator lateness p99 %.3f ms exceeds the %.3f ms limit\n",
                late_p99, kLateLimitMs);
    Die("run invalid: the load generator fell behind its schedule", 3);
  }

  auto limit = [&](const char* c) {
    auto it = a.limits_ms.find(c);
    return it == a.limits_ms.end() ? 0.0 : it->second;
  };
  size_t peak_ok = 0;
  for (const Outcome& o : peak_res.out) peak_ok += o.ok ? 1 : 0;
  const double peak_s = static_cast<double>(peak_res.end_ns - peak_res.start_ns) / 1e9;
  const double disk_per_query = Ratio(static_cast<double>(disk_bytes),
                                      static_cast<double>(final_size));
  const double failed_pct =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)) * 100;
  std::string per_setup = "median of set-ups:";
  for (double t : setup_times) per_setup += " " + Num(t);
  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_times), "s", setup_times.size()},
      {"server_rss_mb", rss_mb, "MB", 1},
      {"disk_bytes_per_query", disk_per_query, "B", final_size},
  };
  std::printf("## end-to-end, bounded in BENCHMARK.json (the JSON line)\n");
  PrintLine(e2e[0], per_setup);
  PrintLine(e2e[1], "primary VmHWM after the peak phase");
  PrintLine(e2e[2], "after the final checkpoint");
  std::printf("## end-to-end, report only: on the shared 4-vCPU host their ten-run spread "
              "exceeds 0.25\n");
  PrintPercentiles("op", op_p, 0);
  PrintLine({"peak_ops_s", Ratio(static_cast<double>(peak_ok), peak_s), "ops/s", peak_ok},
            "ok ops over " + Num(peak_s) + " s");
  PrintLine({"setup.restore_s", Median(restore_times), "s", restore_times.size()},
            "daemon spawn until LISTENING, median of set-ups");
  std::printf("## fixed-rate phase by class, and the rest of the report\n");
  if (search_p.samples > 0) PrintPercentiles("search", search_p, limit("search"));
  if (rec_p.samples > 0) PrintPercentiles("recommend", rec_p, limit("recommend"));
  if (append_p.samples > 0) PrintPercentiles("append", append_p, limit("append"));
  if (write_p.samples > 0) PrintPercentiles("write", write_p, limit("write"));
  if (a.writes) PrintPercentiles("repl_lag", lag_p, 0);
  if (!maint.empty()) {
    std::printf("## maintenance phase (one more fixed-rate phase, after the peak phase)\n");
    PrintLine({"maintain_s", Median(cycles_s), "s", cycles_s.size()},
              "median Maintain+Checkpoint cycle, due time to Checkpoint decoded");
    PrintPercentiles("maintain.op", maint_op_p, 0);
    if (a.writes) PrintPercentiles("maintain.repl_lag", maint_lag_p, 0);
    PrintLine({"maintain.server_rss_mb", rss_after_maint_mb, "MB", 1},
              "primary VmHWM after the maintenance phase");
  }
  PrintLine({"failed_pct", failed_pct, "%", attempted},
            "all measured phases, failed=" + std::to_string(failed));
  PrintLine({"bench.send_late_p99_ms", late_p99, "ms", late.size()},
            "limit " + Num(kLateLimitMs) + " ms");
  for (int k = 0; k <= static_cast<int>(SearchKind::kData); ++k) {
    const auto kind = static_cast<SearchKind>(k);
    const Percentiles p = LatencyOf(fixed_res.out, fixed, [kind](const Request& r) {
      return r.op == net::Op::kSearch && r.kind == kind;
    });
    if (p.samples == 0) continue;
    PrintLine({std::string("search.") + SearchKindName(kind) + "_p50_ms", p.p50, "ms",
               p.samples});
  }

  std::vector<Metric> out_metrics = e2e;
  if (a.trace) {
    std::vector<Metric> pl;
    std::vector<std::pair<std::string, std::string>> notes;
    auto add = [&](std::string name, double v, std::string unit, size_t n) {
      pl.push_back({std::move(name), std::isfinite(v) ? v : 0, std::move(unit), n});
    };
    add("bench.send_late_p99_ms", late_p99, "ms", late.size());

    // Client codec and frame sizes, over both measured phases.
    double enc = 0, dec = 0, qb = 0, rb = 0;
    size_t n_all = 0, n_done = 0;
    double search_rt_us = 0, planner_us = 0, append_rt_us = 0, exec_us = 0;
    size_t n_search_traced = 0, n_append = 0, n_exec = 0;
    struct Gen {
      double span[4] = {0, 0, 0, 0};
      double candidates = 0, matches = 0;
      size_t n = 0;
    };
    std::map<std::string, Gen> gens;
    static const char* kSpanNames[4] = {"resolve_predicates", "generate_candidates",
                                        "filter_score", "rank"};
    std::vector<Span> spans;
    for (const auto& [reqs_ptr, pr] : measured) {
      const std::vector<Request>& reqs = *reqs_ptr;
      for (size_t i = 0; i < reqs.size(); ++i) {
        const Outcome& o = pr->out[i];
        if (!o.sent) continue;
        ++n_all;
        enc += static_cast<double>(o.encode_end_ns - o.encode_start_ns);
        qb += o.request_bytes;
        const uint64_t rid = o.request_id;
        const int32_t root = static_cast<int32_t>(spans.size());
        spans.push_back({OpClassName(reqs[i].cls), o.due_ns, o.done_ns, -1, rid});
        spans.push_back({"client.encode", o.encode_start_ns, o.encode_end_ns, root, rid});
        if (o.recv_ns == 0) continue;
        spans.push_back({"client.send", o.encode_end_ns, o.send_end_ns, root, rid});
        const int32_t wait = static_cast<int32_t>(spans.size());
        spans.push_back({"client.wait", o.send_end_ns, o.recv_ns, root, rid});
        spans.push_back({"client.decode", o.recv_ns, o.done_ns, root, rid});
        ++n_done;
        dec += static_cast<double>(o.done_ns - o.recv_ns);
        rb += o.response_bytes;
        const double rt_us = static_cast<double>(o.recv_ns - o.encode_end_ns) / 1e3;
        if (o.trace.has_value()) {
          Gen& g = gens[o.trace->generator];
          ++g.n;
          int64_t at = o.send_end_ns;
          double sum = 0;
          for (const auto& [name, us] : o.trace->spans_micros) {
            for (int k = 0; k < 4; ++k) {
              if (name == kSpanNames[k]) g.span[k] += static_cast<double>(us);
            }
            sum += static_cast<double>(us);
            spans.push_back({"planner." + name, at, at + static_cast<int64_t>(us) * 1000,
                             wait, rid});
            at += static_cast<int64_t>(us) * 1000;
          }
          for (const auto& [name, v] : o.trace->counters) {
            if (name == "candidates") g.candidates += static_cast<double>(v);
            if (name == "matches") g.matches += static_cast<double>(v);
          }
          search_rt_us += rt_us;
          planner_us += sum;
          ++n_search_traced;
        }
        if (reqs[i].op == net::Op::kAppend && o.ok) {
          ++n_append;
          append_rt_us += rt_us;
          if (reqs[i].execute) {
            ++n_exec;
            exec_us += static_cast<double>(o.exec_micros);
            spans.push_back({"db.execute", o.send_end_ns,
                             o.send_end_ns + o.exec_micros * 1000, wait, rid});
          }
        }
      }
    }
    add("net.encode_us", Ratio(enc, static_cast<double>(n_all)) / 1e3, "us", n_all);
    add("net.decode_us", Ratio(dec, static_cast<double>(n_done)) / 1e3, "us", n_done);
    add("net.request_bytes", Ratio(qb, static_cast<double>(n_all)), "B", n_all);
    add("net.response_bytes", Ratio(rb, static_cast<double>(n_done)), "B", n_done);
    add("server.search_residual_us",
        Ratio(search_rt_us - planner_us, static_cast<double>(n_search_traced)), "us",
        n_search_traced);
    uint64_t search_p99 = 0, append_p99 = 0, search_n = 0, append_n = 0;
    for (const net::OpStatsRow& row : stats_fixed.per_op) {
      if (row.op == static_cast<uint8_t>(net::Op::kSearch)) {
        search_p99 = row.p99_micros;
        search_n = row.count;
      }
      if (row.op == static_cast<uint8_t>(net::Op::kAppend)) {
        append_p99 = row.p99_micros;
        append_n = row.count;
      }
    }
    add("server.search_p99_us", static_cast<double>(search_p99), "us", search_n);
    add("server.append_p99_us", static_cast<double>(append_p99), "us", append_n);
    notes.emplace_back("server.search_p99_us",
                       "Stats rows are cumulative 2x-granular histograms with no bucket "
                       "export, so they cover daemon start through the fixed-rate phase "
                       "(warm-up included) instead of a per-phase diff");
    static const char* kGens[4] = {"posting_intersection", "lsh_buckets", "table_union",
                                   "full_scan"};
    static const char* kSpanMetric[4] = {"resolve_us", "generate_us", "filter_score_us",
                                         "rank_us"};
    for (const char* gname : kGens) {
      const Gen& g = gens[gname];
      for (int k = 0; k < 4; ++k) {
        add(std::string("metaquery.") + gname + "." + kSpanMetric[k],
            Ratio(g.span[k], static_cast<double>(g.n)), "us", g.n);
      }
      add(std::string("metaquery.") + gname + ".candidates_per_match",
          Ratio(g.candidates, g.matches), "ratio", g.n);
    }
    auto d = [&](const std::string& name) { return Delta(m0, m2, name); };
    double planner_total = 0;
    for (const char* gname : kGens) {
      planner_total += d(std::string("cqms_planner_queries_total{generator=\"") + gname + "\"}");
    }
    add("metaquery.full_scan_share",
        Ratio(d("cqms_planner_queries_total{generator=\"full_scan\"}"), planner_total),
        "ratio", static_cast<size_t>(planner_total));
    const double vh = d("cqms_planner_visibility_cache_hits_total");
    const double vm = d("cqms_planner_visibility_cache_misses_total");
    add("metaquery.visibility_hit_ratio", Ratio(vh, vh + vm), "ratio",
        static_cast<size_t>(vh + vm));
    const double probes = d("cqms_knn_lsh_probes_total");
    add("knn.lsh_candidates_per_probe", Ratio(d("cqms_knn_lsh_candidates_total"), probes),
        "count", static_cast<size_t>(probes));
    add("knn.fallbacks",
        d("cqms_knn_table_union_fallbacks_total") + d("cqms_knn_full_scan_fallbacks_total"),
        "count", static_cast<size_t>(probes));

    // In-process calls on a seeded sample of the run's own inputs.
    cqms::Rng sample_rng(a.seed ^ 0x73616d70ull);
    std::vector<const Request*> stmts, searches;
    for (const Request& r : fixed) {
      if (r.op == net::Op::kAppend || r.op == net::Op::kRecommend) stmts.push_back(&r);
      if (r.op == net::Op::kSearch) searches.push_back(&r);
    }
    double parse_ns = 0, build_ns = 0, exec_ns = 0, search_ns = 0;
    size_t n_parse = 0, n_exec_sql = 0, n_search = 0;
    for (size_t k = 0; k < 300 && !stmts.empty(); ++k) {
      const Request& r = *stmts[sample_rng.Uniform(stmts.size())];
      int64_t t = NowNs();
      auto parsed = cqms::sql::Parse(r.text);
      parse_ns += static_cast<double>(NowNs() - t);
      t = NowNs();
      storage::QueryRecord rec = storage::BuildRecordFromText(
          r.text, r.user, 0,
          r.op == net::Op::kAppend ? storage::SignatureMode::kInterned
                                   : storage::SignatureMode::kTransient);
      build_ns += static_cast<double>(NowNs() - t);
      ++n_parse;
      if (parsed.ok()) {
        t = NowNs();
        auto res = lab.log->database()->ExecuteSql(r.text);
        exec_ns += static_cast<double>(NowNs() - t);
        ++n_exec_sql;
      }
    }
    for (size_t k = 0; k < 300 && !searches.empty(); ++k) {
      const Request& r = *searches[sample_rng.Uniform(searches.size())];
      const int64_t t = NowNs();
      auto res = Oracle(lab.log.get(), r);
      search_ns += static_cast<double>(NowNs() - t);
      ++n_search;
    }
    add("sql.parse_us", Ratio(parse_ns, static_cast<double>(n_parse)) / 1e3, "us", n_parse);
    add("storage.build_record_us", Ratio(build_ns, static_cast<double>(n_parse)) / 1e3, "us",
        n_parse);
    add("db.execute_sql_us", Ratio(exec_ns, static_cast<double>(n_exec_sql)) / 1e3, "us",
        n_exec_sql);
    add("core.search_us", Ratio(search_ns, static_cast<double>(n_search)) / 1e3, "us",
        n_search);
    add("db.execute_us", Ratio(exec_us, static_cast<double>(n_exec)), "us", n_exec);

    const double pub_n = d("cqms_publish_micros_count");
    const double publish_us = Ratio(d("cqms_publish_micros_sum"), pub_n);
    size_t writes_acked = 0;
    for (const auto& [reqs_ptr, pr] : measured) {
      const std::vector<Request>& reqs = *reqs_ptr;
      for (size_t i = 0; i < reqs.size(); ++i) {
        if ((reqs[i].cls == OpClass::kAppend || reqs[i].cls == OpClass::kWrite) &&
            pr->out[i].ok) {
          ++writes_acked;
        }
      }
    }
    add("storage.publish_us", publish_us, "us", static_cast<size_t>(pub_n));
    add("storage.publishes_per_write",
        Ratio(d("cqms_views_published_total"), static_cast<double>(writes_acked)), "ratio",
        writes_acked);
    add("profiler.residual_us",
        n_append > 0 ? Ratio(append_rt_us, static_cast<double>(n_append)) -
                           Ratio(exec_us, static_cast<double>(n_append)) - publish_us
                     : 0,
        "us", n_append);
    const double wal_n = d("cqms_wal_appends_total");
    add("storage.wal_bytes_per_write", Ratio(d("cqms_wal_bytes_total"), wal_n), "B",
        static_cast<size_t>(wal_n));
    add("storage.wal_fsyncs", d("cqms_wal_fsyncs_total"), "count",
        static_cast<size_t>(wal_n));
    const double ckpt_n = d("cqms_checkpoint_micros_count");
    const double ckpt_ms = Ratio(d("cqms_checkpoint_micros_sum"), ckpt_n) / 1e3;
    add("storage.checkpoint_ms", ckpt_ms, "ms", static_cast<size_t>(ckpt_n));
    add("storage.restore_s", lab.primary->spawn_to_listening_s(), "s", 1);
    add("storage.snapshot_bytes", static_cast<double>(lab.snapshot_bytes), "B", 1);
    add("setup.generate_s", lab.generate_s, "s", 1);
    add("setup.checkpoint_s", lab.checkpoint_s, "s", 1);
    add("setup.replica_bootstrap_s", lab.bootstrap_s, "s", a.writes ? 1 : 0);

    double miner_ms = 0;
    for (const char* stage : {"sessionize", "association", "popularity", "cluster"}) {
      const std::string base = std::string("cqms_miner_stage_micros");
      const std::string label = std::string("{stage=\"") + stage + "\"}";
      const double n = d(base + "_count" + label);
      const double ms = Ratio(d(base + "_sum" + label), n) / 1e3;
      miner_ms += ms;
      add(std::string("miner.") + stage + "_ms", ms, "ms", static_cast<size_t>(n));
    }
    add("miner.pairs_reused_ratio",
        Ratio(d("cqms_miner_pairs_reused_total"), d("cqms_miner_pairs_enumerated_total")),
        "ratio", static_cast<size_t>(d("cqms_miner_pairs_enumerated_total")));
    add("maintain.residual_ms", cycles_s.empty() ? 0 : cycle_rt_ms - miner_ms - ckpt_ms, "ms",
        cycles_s.size());

    auto rd = [&](const std::string& name) { return Delta(r0, r2, name); };
    const double fpub_n = rd("cqms_publish_micros_count");
    add("repl.follower_publish_us", Ratio(rd("cqms_publish_micros_sum"), fpub_n), "us",
        static_cast<size_t>(fpub_n));
    add("repl.gaps", rd("cqms_repl_gaps_total"), "count", a.writes ? 1 : 0);
    add("repl.crc_failures", rd("cqms_repl_crc_failures_total"), "count",
        a.writes ? 1 : 0);
    add("repl.reconnects", rd("cqms_repl_reconnects_total"), "count",
        a.writes ? 1 : 0);
    add("repl.bootstraps_after_setup", rd("cqms_repl_snapshots_loaded_total"), "count",
        a.writes ? 1 : 0);
    // The follower applies each received batch under one publish scope,
    // so its view publications count the batches that carried frames.
    const double fpub = rd("cqms_views_published_total");
    add("repl.frames_per_batch", Ratio(rd("cqms_repl_frames_applied_total"), fpub), "ratio",
        static_cast<size_t>(fpub));
    add("obs.trace_overhead_pct", trace_overhead_pct, "%", overhead_samples);
    if (overhead_samples == 0) {
      notes.emplace_back("obs.trace_overhead_pct", "no Search in this workload");
    }

    std::printf("## per-layer (traced run)\n");
    for (const Metric& m : pl) PrintLine(m);
    for (const auto& [name, why] : notes) std::printf("note %s: %s\n", name.c_str(), why.c_str());

    // Span export, once, at the end; then the self-time summary.
    const std::string span_path =
        fs::path(a.run_dir).parent_path().string() + "/spans-" + a.workload + ".jsonl";
    if (FILE* f = std::fopen(span_path.c_str(), "w")) {
      for (const Span& s : spans) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                     "\"request_id\":%llu}\n",
                     s.name.c_str(), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<unsigned long long>(s.request_id));
      }
      std::fclose(f);
    }
    std::printf("## span self time (%zu spans -> %s)\n", spans.size(), span_path.c_str());
    for (const auto& [name, t] : SelfTimes(spans)) {
      std::printf("span %-34s n=%-8zu mean_total_us=%-12s mean_self_us=%s\n", name.c_str(),
                  t.count, Num(t.total_ns / static_cast<double>(t.count) / 1e3).c_str(),
                  Num(t.self_ns / static_cast<double>(t.count) / 1e3).c_str());
    }
    // The JSON line carries the per-layer metrics every workload has work
    // for; one that reads 0 on every run of a workload whose layer idles
    // would pass for a fixed number. The report above prints them all.
    static const char* kEveryWorkload[] = {
        "bench.send_late_p99_ms", "net.encode_us",        "net.decode_us",
        "net.request_bytes",      "net.response_bytes",   "sql.parse_us",
        "storage.build_record_us", "db.execute_sql_us",   "storage.restore_s",
        "storage.snapshot_bytes", "setup.generate_s",     "setup.checkpoint_s"};
    out_metrics.clear();
    for (const Metric& m : pl) {
      for (const char* name : kEveryWorkload) {
        if (m.name == name) out_metrics.push_back(m);
      }
    }
  }

  lab.Teardown();
  fs::remove_all(a.run_dir);

  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out_metrics.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g", out_metrics[i].value);
    json += (i ? ", \"" : "\"") + out_metrics[i].name + "\": {\"value\": " + v +
            ", \"unit\": \"" + out_metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
