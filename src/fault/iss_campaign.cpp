#include "fault/iss_campaign.hpp"

#include "engine/iss_backend.hpp"

namespace issrtl::fault {

u64 outcome_hash(const IssCampaignResult& r) {
  u64 hash = 1469598103934665603ull;  // FNV-1a, as for CampaignResult
  for (const IssInjectionResult& run : r.runs) {
    hash = (hash ^ static_cast<u64>(run.outcome())) * 1099511628211ull;
    hash = (hash ^ run.latency_instr) * 1099511628211ull;
  }
  return hash;
}

IssCampaignResult run_iss_campaign(const isa::Program& prog,
                                   const IssCampaignConfig& cfg) {
  return engine::run_iss_campaign_engine(prog, cfg, {});
}

}  // namespace issrtl::fault
