#include "assist/assisted_composer.h"

namespace cqms::assist {

AssistedComposer::AssistedComposer(const storage::QueryStore* store,
                                   const db::Database* database,
                                   const miner::QueryMiner* miner,
                                   AssistOptions options)
    : completion_(store, miner, &database->catalog()),
      correction_(store, database),
      recommendation_(store),
      options_(options) {}

AssistResponse AssistedComposer::Assist(const std::string& viewer,
                                        const std::string& partial_text) const {
  AssistResponse response;
  response.completions =
      completion_.Complete(viewer, partial_text, options_.max_completions);
  response.corrections = correction_.CorrectIdentifiers(partial_text);
  auto recs = recommendation_.Recommend(viewer, partial_text,
                                        options_.max_recommendations,
                                        options_.recommend);
  if (recs.ok()) response.recommendations = std::move(recs).value();
  return response;
}

}  // namespace cqms::assist
