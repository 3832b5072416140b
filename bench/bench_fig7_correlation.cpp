// Figure 7 — propagated faults as a function of instruction diversity, for
// the stuck-at-1 model at IU nodes, including the benchmark excerpts to
// increase the number of points. The paper fits Pf = 0.0838*ln(D) - 0.0191
// with R^2 = 0.9246; we regenerate the scatter, the log fit, its R^2 and
// the Pearson correlation between ln(D) and Pf.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/diversity.hpp"
#include "core/stats.hpp"

int main() {
  using namespace issrtl;
  bench::banner(
      "Figure 7: Pf vs instruction diversity (stuck-at-1 @ IU) + log fit",
      "Espinosa et al., DAC 2015, Fig. 7");

  std::vector<std::string> points = workloads::table1_names();
  for (const auto& n : workloads::excerpt_set_a()) points.push_back(n);
  for (const auto& n : workloads::excerpt_set_b()) points.push_back(n);

  fault::TextTable t({"workload", "diversity D", "Pf [95% CI]"});
  std::vector<double> xs, ys;
  for (const auto& name : points) {
    const auto prog = workloads::build(
        name, {.iterations = bench::campaign_iters(), .data_seed = 1});
    const auto div = core::analyze_diversity(prog);
    const auto r = bench::campaign(name, "iu", {rtl::FaultModel::kStuckAt1});
    const fault::CampaignStats& s = r.stats_for(rtl::FaultModel::kStuckAt1);
    xs.push_back(div.diversity);
    ys.push_back(s.pf());
    t.add_row({name, std::to_string(div.diversity), bench::pf_cell(s)});
  }
  std::printf("%s\n", t.render().c_str());

  const core::LogFit fit = core::log_fit(xs, ys);
  std::vector<double> lnx(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) lnx[i] = std::log(xs[i]);
  std::printf("log fit:  Pf = %.4f*ln(D) %c %.4f   R^2 = %.4f\n", fit.a,
              fit.b < 0 ? '-' : '+', std::abs(fit.b), fit.r2);
  std::printf("paper:    Pf = 0.0838*ln(D) - 0.0191   R^2 = 0.9246\n");
  std::printf("pearson r(ln D, Pf) = %.4f\n", core::pearson(lnx, ys));
  std::printf("shape check: positive slope and R^2 >= 0.85 expected -> %s\n",
              (fit.a > 0 && fit.r2 >= 0.85) ? "OK" : "CHECK");
  return 0;
}
