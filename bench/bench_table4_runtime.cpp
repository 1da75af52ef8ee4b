// Table IV: runtime breakdown — baseline (GR + DR) vs TSteiner-integrated
// flow (TSteiner + GR + DR) per design, with ratio averages. Paper: total
// 1.32x, GR 1.017x, DR 0.934x under TSteiner.
#include "bench_common.hpp"

#include "droute/detailed_route.hpp"
#include "util/timer.hpp"

using namespace tsteiner;
using namespace tsteiner::bench;

int main() {
  SuiteOptions opts = default_suite_options();
  std::printf("== Table IV: runtime breakdown (s) at scale %.2f ==\n\n", opts.scale);
  TrainedSuite suite = build_and_train_suite(opts);

  // Our cost profile inverts the paper's: the DR *surrogate* is nearly free
  // while evaluator inference dominates (the paper ran GPU inference against
  // an hours-long TritonRoute). Wall-clock columns are reported for
  // completeness; the paper's "DR gets faster under TSteiner" effect is
  // visible in the DR repair-work columns (conflict-repair effort units).
  Table t({"Benchmark", "GR", "DRwork", "TSteiner", "GR'", "DRwork'"});
  double r_gr = 0, r_drw = 0, tsteiner_total = 0, base_total_s = 0;
  double util_gr = 0, util_sta = 0;
  int counted = 0;
  for (PreparedDesign& pd : suite.designs) {
    const FlowResult base = pd.flow->run_signoff(pd.flow->initial_forest());
    const DetailedRouteResult base_dr =
        detailed_route(*pd.design, pd.flow->initial_forest(), base.gr,
                       pd.flow->options().droute);

    WallTimer refine_timer;
    const RefineOptions ropts = default_refine_options(pd);
    const RefineResult refined =
        refine_steiner_points(*pd.design, pd.flow->initial_forest(), *suite.model, ropts);
    const double refine_s = refine_timer.seconds();
    const FlowResult opt = pd.flow->run_signoff(refined.forest);
    const DetailedRouteResult opt_dr =
        detailed_route(*pd.design, refined.forest, opt.gr, pd.flow->options().droute);

    t.add_row({pd.spec.name, fmt(base.runtime.global_route.wall_s),
               Table::num(base_dr.repair_work), fmt(refine_s),
               fmt(opt.runtime.global_route.wall_s), Table::num(opt_dr.repair_work)});
    util_gr += opt.runtime.global_route.utilization();
    util_sta += opt.runtime.sta.utilization();
    if (base.runtime.global_route.wall_s > 1e-9) {
      r_gr += ratio(opt.runtime.global_route.wall_s, base.runtime.global_route.wall_s);
      r_drw += ratio(static_cast<double>(opt_dr.repair_work),
                     static_cast<double>(std::max<long long>(1, base_dr.repair_work)));
      ++counted;
    }
    tsteiner_total += refine_s;
    base_total_s += base.runtime.global_route.wall_s + base.runtime.detailed_route.wall_s;
  }
  t.print();
  if (counted > 0) {
    const double n = counted;
    std::printf("\nRatio averages (TSteiner flow / baseline): GR %.3f  DR-work %.3f\n",
                r_gr / n, r_drw / n);
    const double n_all = static_cast<double>(suite.designs.size());
    std::printf("Mean pool utilization (effective threads): GR %.2f  STA %.2f\n",
                util_gr / n_all, util_sta / n_all);
    std::printf("TSteiner refinement total: %.1fs vs %.1fs of routing — the inverse of the\n"
                "paper's profile (their DR dominates; Total 1.320, GR 1.017, DR 0.934)\n",
                tsteiner_total, base_total_s);
  }
  return 0;
}
