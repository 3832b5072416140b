// Figure 5 — fault-injection experiments for the six benchmarks and the
// three permanent fault models (stuck-at-1, stuck-at-0, open-line) at
// integer-unit nodes. Expected shape: near-constant Pf across the
// automotive benchmarks (almost identical diversity), visibly lower and
// more variable Pf for the low-diversity synthetics. ttsprk vs puwmod
// additionally validates instruction-order independence (same diversity,
// different schedules, same Pf).
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  using namespace issrtl;
  bench::banner("Figure 5: Pf per benchmark and fault model @ IU nodes",
                "Espinosa et al., DAC 2015, Fig. 5");

  const std::vector<rtl::FaultModel> models = {rtl::FaultModel::kStuckAt1,
                                               rtl::FaultModel::kStuckAt0,
                                               rtl::FaultModel::kOpenLine};
  fault::TextTable t(
      {"benchmark", "class", "stuck-at-1", "stuck-at-0", "open-line"});
  double auto_sa1_min = 1.0, auto_sa1_max = 0.0, synth_sa1_max = 0.0;
  for (const auto& name : workloads::table1_names()) {
    const auto r = bench::campaign(name, "iu", models);
    const bool synth = workloads::find(name).synthetic;
    const double sa1 = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
    if (synth) {
      synth_sa1_max = std::max(synth_sa1_max, sa1);
    } else {
      auto_sa1_min = std::min(auto_sa1_min, sa1);
      auto_sa1_max = std::max(auto_sa1_max, sa1);
    }
    t.add_row({name, synth ? "synthetic" : "automotive",
               bench::pf_cell(r.stats_for(rtl::FaultModel::kStuckAt1)),
               bench::pf_cell(r.stats_for(rtl::FaultModel::kStuckAt0)),
               bench::pf_cell(r.stats_for(rtl::FaultModel::kOpenLine))});
  }
  std::printf("%s(Pf per fault model, with its 95%% Wilson interval)\n\n",
              t.render().c_str());
  std::printf("automotive SA1 band: %.1f%%..%.1f%% (near-constant, paper: "
              "~25-35%%); synthetic max %.1f%% (below the automotive band)\n",
              auto_sa1_min * 100.0, auto_sa1_max * 100.0,
              synth_sa1_max * 100.0);
  return 0;
}
