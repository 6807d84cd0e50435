#include "core/cqms.h"

namespace cqms {

namespace {

const Clock* ResolveClock(const CqmsOptions& options,
                          std::unique_ptr<Clock>* owned) {
  if (options.clock != nullptr) return options.clock;
  *owned = std::make_unique<SystemClock>();
  return owned->get();
}

}  // namespace

Cqms::Cqms(CqmsOptions options)
    : clock_(ResolveClock(options, &owned_clock_)),
      database_(clock_),
      store_(),
      profiler_(&database_, &store_, clock_, options.profiler),
      metaquery_(&store_),
      miner_(&store_, clock_, options.miner),
      maintenance_(&database_, &store_, clock_, options.maintenance),
      composer_(&store_, &database_, &miner_, options.assist) {}

Status Cqms::EnableDurability(const std::string& dir,
                              storage::DurabilityOptions options) {
  if (durable_ != nullptr) {
    return Status::InvalidArgument("durability is already enabled");
  }
  auto durable = std::make_unique<storage::DurableStore>(&store_, dir, options);
  CQMS_RETURN_IF_ERROR(durable->Open());
  durable_ = std::move(durable);
  maintenance_.AttachDurability(durable_.get());
  return Status::Ok();
}

Status Cqms::Annotate(storage::QueryId id, const std::string& author,
                      const std::string& text, const std::string& fragment) {
  storage::Annotation note;
  note.author = author;
  note.timestamp = clock_->Now();
  note.text = text;
  note.fragment = fragment;
  if (!fragment.empty()) {
    const storage::QueryRecord* r = store_.Get(id);
    if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
    if (r->text->find(fragment) == std::string::npos) {
      return Status::InvalidArgument(
          "fragment is not a substring of the query text");
    }
  }
  return store_.Annotate(id, std::move(note));
}

bool Cqms::ShouldRequestAnnotation(storage::QueryId id,
                                   size_t table_threshold) const {
  const storage::QueryRecord* r = store_.Get(id);
  if (r == nullptr || r->parse_failed()) return false;
  if (!r->annotations.empty()) return false;
  return r->components->tables.size() >= table_threshold ||
         r->components->has_subquery;
}

Result<std::string> Cqms::ShowSession(const std::string& viewer,
                                      storage::SessionId session_id) const {
  const miner::Session* session = miner_.FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id) +
                            " (has mining run?)");
  }
  bool any_visible = false;
  for (storage::QueryId id : session->queries) {
    if (store_.Visible(viewer, id)) {
      any_visible = true;
      break;
    }
  }
  if (!any_visible) {
    return Status::PermissionDenied("session " + std::to_string(session_id) +
                                    " is not visible to " + viewer);
  }
  return client::RenderSessionAscii(store_, *session);
}

std::string Cqms::Tutorial() const {
  auto sections = miner::GenerateTutorial(store_, database_.catalog(),
                                          miner_.popularity());
  return miner::RenderTutorial(store_, sections);
}

Status Cqms::SetVisibility(const std::string& requester, storage::QueryId id,
                           storage::Visibility visibility) {
  const storage::QueryRecord* r = store_.Get(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
  return store_.acl().SetVisibility(id, r->user, requester, visibility);
}

}  // namespace cqms
