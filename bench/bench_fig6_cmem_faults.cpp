// Figure 6 — the Figure 5 experiment repeated at the cache-memory (CMEM)
// nodes: tag/valid/data arrays and refill state of the I- and D-caches.
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  using namespace issrtl;
  bench::banner("Figure 6: Pf per benchmark and fault model @ CMEM nodes",
                "Espinosa et al., DAC 2015, Fig. 6");

  const std::vector<rtl::FaultModel> models = {rtl::FaultModel::kStuckAt1,
                                               rtl::FaultModel::kStuckAt0,
                                               rtl::FaultModel::kOpenLine};
  fault::TextTable t(
      {"benchmark", "class", "stuck-at-1", "stuck-at-0", "open-line"});
  double auto_min = 1.0, auto_max = 0.0;
  for (const auto& name : workloads::table1_names()) {
    const auto r = bench::campaign(name, "cmem", models);
    const bool synth = workloads::find(name).synthetic;
    const double sa1 = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
    if (!synth) {
      auto_min = std::min(auto_min, sa1);
      auto_max = std::max(auto_max, sa1);
    }
    t.add_row({name, synth ? "synthetic" : "automotive",
               bench::pf_cell(r.stats_for(rtl::FaultModel::kStuckAt1)),
               bench::pf_cell(r.stats_for(rtl::FaultModel::kStuckAt0)),
               bench::pf_cell(r.stats_for(rtl::FaultModel::kOpenLine))});
  }
  std::printf("%s(Pf per fault model, with its 95%% Wilson interval)\n\n",
              t.render().c_str());
  std::printf("automotive SA1 band at CMEM: %.1f%%..%.1f%% (near-constant "
              "across the automotive set, as in the paper)\n",
              auto_min * 100.0, auto_max * 100.0);
  return 0;
}
