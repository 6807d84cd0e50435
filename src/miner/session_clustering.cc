#include "miner/session_clustering.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/sorted_vector.h"
#include "metaquery/similarity.h"

namespace cqms::miner {

namespace {

/// Sorted, deduplicated skeleton fingerprints of a session's queries —
/// the allocation-light replacement for a std::set, compared with the
/// same linear merge the similarity signatures use.
std::vector<uint64_t> SessionSkeletons(const storage::QueryStore& store,
                                       const Session& session) {
  std::vector<uint64_t> out;
  out.reserve(session.queries.size());
  for (storage::QueryId id : session.queries) {
    const storage::QueryRecord* r = store.Get(id);
    if (r != nullptr && !r->parse_failed()) {
      out.push_back(r->statement().skeleton_fingerprint);
    }
  }
  SortUnique(&out);
  return out;
}

}  // namespace

double SessionSimilarity(const storage::QueryStore& store, const Session& a,
                         const Session& b) {
  // SortedJaccard scores both-empty pairs 1.0 and one-empty pairs 0.0,
  // which is exactly the session-similarity edge policy.
  return metaquery::SortedJaccard(SessionSkeletons(store, a),
                                  SessionSkeletons(store, b));
}

int SessionClustering::ClusterOfIndex(size_t i) const {
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t member : clusters[c]) {
      if (member == i) return static_cast<int>(c);
    }
  }
  return -1;
}

SessionClustering ClusterSessions(const storage::QueryStore& store,
                                  const std::vector<Session>& sessions,
                                  double max_distance) {
  SessionClustering out;
  const size_t n = sessions.size();
  if (n == 0) return out;

  // Precompute skeleton vectors once; union-find over the threshold graph.
  std::vector<std::vector<uint64_t>> skeletons(n);
  for (size_t i = 0; i < n; ++i) {
    skeletons[i] = SessionSkeletons(store, sessions[i]);
  }
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (1.0 - metaquery::SortedJaccard(skeletons[i], skeletons[j]) <=
          max_distance) {
        parent[find(i)] = find(j);
      }
    }
  }
  std::map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) components[find(i)].push_back(i);
  for (auto& [root, members] : components) {
    out.clusters.push_back(std::move(members));
  }
  return out;
}

std::vector<std::string> SimilarSessionUsers(const std::vector<Session>& sessions,
                                             const SessionClustering& clustering,
                                             const std::string& user) {
  std::set<std::string> users;
  for (const auto& cluster : clustering.clusters) {
    bool involves_user = false;
    for (size_t i : cluster) {
      if (sessions[i].user == user) {
        involves_user = true;
        break;
      }
    }
    if (!involves_user) continue;
    for (size_t i : cluster) {
      if (sessions[i].user != user) users.insert(sessions[i].user);
    }
  }
  return std::vector<std::string>(users.begin(), users.end());
}

}  // namespace cqms::miner
