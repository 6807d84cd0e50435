#include "lab.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/binary_codec.h"
#include "workload/synthetic.h"

namespace labbench {

namespace net = cqms::net;
namespace storage = cqms::storage;
using cqms::Status;

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kSearch: return "search";
    case OpClass::kRecommend: return "recommend";
    case OpClass::kAppend: return "append";
    case OpClass::kWrite: return "write";
    case OpClass::kMaintain: return "maintain";
    case OpClass::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

const char* SearchKindName(SearchKind k) {
  switch (k) {
    case SearchKind::kKeyword: return "keyword";
    case SearchKind::kFeature: return "feature";
    case SearchKind::kStructure: return "structure";
    case SearchKind::kKnn: return "knn";
    case SearchKind::kKeywordKnn: return "keyword_knn";
    case SearchKind::kSubstring: return "substring";
    case SearchKind::kData: return "data";
    case SearchKind::kNone: return "none";
  }
  return "unknown";
}

std::string EncodeRequest(const Request& r, uint64_t request_id) {
  cqms::BinaryWriter w;
  net::BeginRequest(&w, request_id, r.op);
  switch (r.op) {
    case net::Op::kSearch:
      net::EncodeSearchRequest(&w, net::SearchRequest{r.user, r.spec});
      break;
    case net::Op::kRecommend:
      net::EncodeRecommendRequest(&w, net::RecommendRequest{r.user, r.text, 5});
      break;
    case net::Op::kAppend:
      net::EncodeAppendRequest(&w, net::AppendRequest{r.user, r.text, r.execute});
      break;
    case net::Op::kAnnotate:
      net::EncodeAnnotateRequest(&w, net::AnnotateRequest{r.target, r.user, r.text, ""});
      break;
    case net::Op::kSetVisibility:
      net::EncodeSetVisibilityRequest(
          &w, net::SetVisibilityRequest{r.user, r.target, r.visibility});
      break;
    case net::Op::kRewrite:
      net::EncodeRewriteRequest(&w, net::RewriteRequest{r.target, r.text});
      break;
    case net::Op::kMaintain:
      net::EncodeMaintainRequest(&w, net::MaintainRequest{true});
      break;
    default:  // Checkpoint: empty body.
      break;
  }
  return w.Take();
}

namespace {

bool Succeeded(const storage::QueryRecord& rec) {
  return !rec.parse_failed() && rec.stats.succeeded;
}

}  // namespace

LogPools BuildPools(const storage::QueryStore& store,
                    const storage::QueryStore& stream, size_t num_users) {
  LogPools pools;
  pools.log = &store;
  pools.num_users = num_users;
  for (QueryId id = 0; id < static_cast<QueryId>(store.size()); ++id) {
    const storage::QueryRecord* rec = store.Get(id);
    pools.owner.push_back(rec != nullptr ? rec->user : std::string());
    if (rec == nullptr || !Succeeded(*rec)) continue;
    pools.ok_ids.push_back(id);
    if (!rec->summary.sample_rows.empty()) pools.with_rows.push_back(id);
  }
  for (QueryId id = 0; id < static_cast<QueryId>(stream.size()); ++id) {
    const storage::QueryRecord* rec = stream.Get(id);
    if (rec == nullptr) continue;
    if (Succeeded(*rec)) pools.stream_ok.push_back(pools.stream.size());
    pools.stream.emplace_back(rec->text, rec->user);
  }
  // Dashboards: the first 6 distinct clean statements of the stream,
  // re-run verbatim (templated reports a lab refreshes every day). The
  // count is an assumption.
  for (size_t i : pools.stream_ok) {
    const std::string& text = pools.stream[i].first;
    if (std::find(pools.dashboards.begin(), pools.dashboards.end(), text) ==
        pools.dashboards.end()) {
      pools.dashboards.push_back(text);
    }
    if (pools.dashboards.size() == 6) break;
  }
  return pools;
}

RequestMaker::RequestMaker(const LogPools* pools, uint64_t seed)
    : pools_(pools), rng_(seed) {}

const storage::QueryRecord& RequestMaker::PickOk() {
  QueryId id = pools_->ok_ids[rng_.Uniform(pools_->ok_ids.size())];
  return *pools_->log->Get(id);
}

std::string RequestMaker::Viewer() {
  // Assumed skew: the generator's template_skew, reused for viewers.
  return cqms::workload::UserName(
      rng_.Zipf(pools_->num_users, cqms::workload::WorkloadOptions().template_skew));
}

QueryId RequestMaker::RecentId() {
  // Assumption: metadata edits target recent queries; 500 is about half
  // of ingest's set-up log.
  const size_t n = pools_->owner.size();
  return static_cast<QueryId>(n - 1 - rng_.Uniform(std::min<size_t>(500, n)));
}

const std::pair<std::string, std::string>& RequestMaker::NextStream() {
  const auto& s = pools_->stream[stream_pos_ % pools_->stream.size()];
  ++stream_pos_;
  return s;
}

Request RequestMaker::Read() {
  // Search-and-browse plus assisted mode. Weights: keyword, feature,
  // structure, kNN, keyword+kNN, substring, data example, Recommend.
  // They are assumptions, not measured shares (no real query-log trace
  // is available): the index-backed kinds are the common ones, the full
  // scans (substring, data example) the rare ones, and each kind still
  // gets 100+ samples per run for its own p50.
  static const std::vector<double> kWeights = {18, 12, 10, 15, 10, 5, 5, 25};
  Request r;
  r.user = Viewer();
  const size_t pick = rng_.WeightedIndex(kWeights);
  if (pick == 7) {
    r.op = net::Op::kRecommend;
    r.cls = OpClass::kRecommend;
    r.text = PickOk().text;
    return r;
  }
  r.op = net::Op::kSearch;
  r.cls = OpClass::kSearch;
  r.kind = static_cast<SearchKind>(pick);
  net::SearchSpec& spec = r.spec;
  spec.limit = 20;
  const storage::QueryRecord& rec =
      r.kind == SearchKind::kData
          ? *pools_->log->Get(
                pools_->with_rows[rng_.Uniform(pools_->with_rows.size())])
          : PickOk();
  const cqms::sql::QueryComponents& c = rec.components;
  const std::string& table = c.tables[rng_.Uniform(c.tables.size())];
  std::vector<const cqms::sql::PredicateFeature*> preds;
  for (const auto& p : c.predicates) {
    if (!p.is_join && !p.relation.empty()) preds.push_back(&p);
  }
  switch (r.kind) {
    case SearchKind::kKeyword: {
      std::string words = table;
      if (!c.attributes.empty() && rng_.Bernoulli(0.5)) {
        words += " " + c.attributes[rng_.Uniform(c.attributes.size())].second;
      }
      spec.keyword = net::KeywordSpec{words, true};
      break;
    }
    case SearchKind::kFeature: {
      net::FeatureSpec f;
      f.tables.push_back(table);
      if (!c.attributes.empty()) {
        const auto& a = c.attributes[rng_.Uniform(c.attributes.size())];
        if (!a.first.empty()) f.attributes.push_back(a);
      }
      if (!preds.empty()) {
        const auto* p = preds[rng_.Uniform(preds.size())];
        f.predicates.push_back({p->relation, p->attribute, p->op});
      }
      spec.feature = std::move(f);
      break;
    }
    case SearchKind::kStructure: {
      cqms::metaquery::StructuralPattern s;
      s.required_tables.push_back(table);
      if (!preds.empty()) {
        s.required_predicate_skeletons.push_back(
            preds[rng_.Uniform(preds.size())]->Skeleton());
      }
      if (!c.group_by.empty()) s.requires_group_by = true;
      spec.structure = std::move(s);
      break;
    }
    case SearchKind::kKnn:
      spec.similarity.emplace();
      spec.similarity->probe_text = rec.text;
      spec.limit = 10;
      break;
    case SearchKind::kKeywordKnn:
      spec.keyword = net::KeywordSpec{table, true};
      spec.similarity.emplace();
      spec.similarity->probe_text = PickOk().text;
      spec.limit = 10;
      break;
    case SearchKind::kSubstring: {
      // A short slice starting at a word boundary: always a full scan.
      const std::string& t = rec.text;
      std::vector<size_t> starts = {0};
      for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i] == ' ') starts.push_back(i + 1);
      }
      size_t from = starts[rng_.Uniform(starts.size())];
      if (from + 6 > t.size()) from = 0;
      spec.substring = t.substr(from, 10);
      break;
    }
    case SearchKind::kData: {
      const auto& rows = rec.summary.sample_rows;
      net::DataSpec d;
      d.examples.push_back({rows[rng_.Uniform(rows.size())], true});
      spec.data = std::move(d);
      break;
    }
    default:
      break;
  }
  return r;
}

Request RequestMaker::Write() {
  // Traditional-mode logging. Weights (per 100 writes): executed Append,
  // dashboard re-run, log-only import, Annotate, SetVisibility, Rewrite.
  // Annotate takes the generator's annotation_rate; the others are
  // assumptions, not measured shares, that keep Appends the bulk of the
  // writes while every write op still gets samples. Typos come from the
  // stream itself, at the generator's typo_rate.
  static const std::vector<double> kWeights = {
      60, 10, 10, 100 * cqms::workload::WorkloadOptions().annotation_rate, 6, 6};
  static const char* kNotes[] = {"checked against the field log",
                                 "baseline for the weekly report",
                                 "calibration drift suspected",
                                 "use this one for the storm event"};
  Request r;
  r.cls = OpClass::kWrite;
  const size_t pick = rng_.WeightedIndex(kWeights);
  switch (pick) {
    case 0:
    case 2: {
      const auto& s = NextStream();
      r.op = net::Op::kAppend;
      r.cls = OpClass::kAppend;
      r.text = s.first;
      r.user = s.second;
      r.execute = pick == 0;
      break;
    }
    case 1:
      r.op = net::Op::kAppend;
      r.cls = OpClass::kAppend;
      r.text = pools_->dashboards[rng_.Uniform(pools_->dashboards.size())];
      r.user = Viewer();
      break;
    case 3:
      r.op = net::Op::kAnnotate;
      r.target = RecentId();
      r.user = Viewer();
      r.text = kNotes[rng_.Uniform(4)];
      break;
    case 4:
      r.op = net::Op::kSetVisibility;
      r.target = RecentId();
      r.user = pools_->owner[static_cast<size_t>(r.target)];
      r.visibility = static_cast<storage::Visibility>(rng_.Uniform(3));
      break;
    default:
      r.op = net::Op::kRewrite;
      r.target = RecentId();
      r.text = pools_->stream[pools_->stream_ok[rng_.Uniform(
                                  pools_->stream_ok.size())]]
                   .first;
      break;
  }
  return r;
}

std::vector<Request> BuildSchedule(RequestMaker* maker, const PhasePlan& plan,
                                   uint64_t seed) {
  cqms::Rng arrivals(seed);
  std::vector<Request> reqs;
  auto next = [&] {
    return arrivals.UniformDouble() < plan.read_share ? maker->Read()
                                                      : maker->Write();
  };
  if (plan.rate_ops_s > 0) {
    double t_us = 0;
    while (true) {
      t_us += -std::log(1.0 - arrivals.UniformDouble()) / plan.rate_ops_s * 1e6;
      if (t_us >= static_cast<double>(plan.duration_us)) break;
      Request r = next();
      r.due_us = static_cast<int64_t>(t_us);
      r.conn = static_cast<uint32_t>(reqs.size() % plan.conns);
      reqs.push_back(std::move(r));
    }
    for (double at : plan.maintain_at) {
      Request m;
      m.due_us = static_cast<int64_t>(at * static_cast<double>(plan.duration_us));
      m.op = cqms::net::Op::kMaintain;
      m.cls = OpClass::kMaintain;
      Request c = m;
      c.op = cqms::net::Op::kCheckpoint;
      c.cls = OpClass::kCheckpoint;
      reqs.push_back(std::move(m));
      reqs.push_back(std::move(c));
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request& a, const Request& b) {
                       return a.due_us < b.due_us;
                     });
  } else {
    for (size_t i = 0; i < plan.op_count; ++i) {
      Request r = next();
      r.conn = static_cast<uint32_t>(i % plan.conns);
      reqs.push_back(std::move(r));
    }
  }
  return reqs;
}

std::string ScheduleBytes(const std::vector<Request>& reqs) {
  cqms::BinaryWriter w;
  for (size_t i = 0; i < reqs.size(); ++i) {
    w.PutVarint(static_cast<uint64_t>(reqs[i].due_us));
    w.PutVarint(reqs[i].conn);
    w.PutString(EncodeRequest(reqs[i], i + 1));
  }
  return w.Take();
}

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Percentiles ComputePercentiles(std::vector<double> latencies, size_t failures,
                               double failed_value) {
  std::sort(latencies.begin(), latencies.end());
  Percentiles out;
  out.failures = failures;
  out.samples = latencies.size() + failures;
  if (out.samples == 0) return out;
  auto at = [&](double p, bool* failed) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(out.samples)));
    rank = std::clamp<size_t>(rank, 1, out.samples);
    *failed = rank > latencies.size();
    return std::make_pair(rank, *failed ? failed_value : latencies[rank - 1]);
  };
  out.p50 = at(50, &out.p50_failed).second;
  auto [rank99, v99] = at(99, &out.p99_failed);
  out.p99 = v99;
  out.beyond_p99 = out.samples - rank99;
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 &&
        static_cast<size_t>(spans[i].parent) < spans.size()) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (size_t c : children[i]) {
      int64_t a = std::max(spans[c].start_ns, s.start_ns);
      int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    SelfTime& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - static_cast<double>(covered);
  }
  return out;
}

Status CheckRanked(const std::vector<ScoredId>& expected,
                   const std::vector<ScoredId>& got) {
  if (expected.size() != got.size()) {
    return Status::Internal("result count " + std::to_string(got.size()) +
                            ", expected " + std::to_string(expected.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (expected[i].id != got[i].id) {
      return Status::Internal("rank " + std::to_string(i) + ": id " +
                              std::to_string(got[i].id) + ", expected " +
                              std::to_string(expected[i].id));
    }
    const double tol = 1e-9 * std::max(1.0, std::fabs(expected[i].score));
    if (std::fabs(expected[i].score - got[i].score) > tol) {
      return Status::Internal("rank " + std::to_string(i) + ": score " +
                              std::to_string(got[i].score) + ", expected " +
                              std::to_string(expected[i].score));
    }
  }
  return Status::Ok();
}

Status CheckAckedAppends(const storage::QueryStore& reopened,
                         const std::vector<AckedAppend>& acked) {
  for (const AckedAppend& a : acked) {
    const storage::QueryRecord* rec = reopened.Get(a.id);
    if (rec == nullptr) {
      return Status::Internal("acked append " + std::to_string(a.id) +
                              " missing after reopen");
    }
    if (rec->text != a.text) {
      return Status::Internal("acked append " + std::to_string(a.id) +
                              " has text '" + rec->text + "', expected '" +
                              a.text + "'");
    }
  }
  return Status::Ok();
}

Status CheckReplica(uint64_t primary_size, uint64_t primary_sequence,
                    uint64_t replica_size, uint64_t replica_sequence) {
  if (primary_size != replica_size || primary_sequence != replica_sequence) {
    return Status::Internal(
        "replica at size " + std::to_string(replica_size) + " seq " +
        std::to_string(replica_sequence) + ", primary at size " +
        std::to_string(primary_size) + " seq " +
        std::to_string(primary_sequence));
  }
  return Status::Ok();
}

Status CheckFinalSize(uint64_t initial, uint64_t acked_appends,
                      uint64_t final_size) {
  if (initial + acked_appends != final_size) {
    return Status::Internal("final size " + std::to_string(final_size) +
                            " != initial " + std::to_string(initial) + " + " +
                            std::to_string(acked_appends) + " acked appends");
  }
  return Status::Ok();
}

std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto get = [&](const std::map<std::string, double>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

}  // namespace labbench
