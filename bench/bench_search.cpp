// Experiment P1 — engine-comparison sweep: search engine x evaluation
// budget -> mapping quality, the head-to-head optimizer grid the plan
// layer exists for (MAGMA-style). Every cell runs one engine on the same
// problem under an evaluation budget, so cells are deterministic per seed
// and comparable across engines (an evaluation means the same thing —
// one full-mapping fitness — everywhere).
//
// Reads top-to-bottom per engine: how fast does quality converge with
// budget? Reads across engines at a budget: what does the GA's machinery
// buy over annealing, over random sampling, over no search at all?
//
// Experiment P2 — threads x engine scaling grid: the same budgeted
// search at 1/2/4(/8) fitness threads -> wall clock, speedup vs 1
// thread, and a byte-identity check of the resulting mapping JSON (the
// determinism contract of docs/PERFORMANCE.md: --threads changes wall
// clock, never the mapping). Speedups reflect the machine — a
// single-core container shows ~1.0x by physics, a 4-core CI runner
// should show >= 2x for the GA.
//
//   --smoke   tiny grid for CI (Release job): exercises all engines
//             end to end without timing anything.
#include "bench_common.h"

#include <chrono>

#include "mars/core/serialize.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"

namespace mars::bench {
namespace {

void run_engine_grid(const Options& options, bool smoke) {
  const std::string model = smoke ? "alexnet" : "resnet34";
  const std::vector<long long> budgets =
      smoke ? std::vector<long long>{40}
            : (options.quick ? std::vector<long long>{100, 400}
                             : std::vector<long long>{100, 400, 1600});

  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model(model, topo, designs, /*adaptive=*/true);

  // One tuning for every engine; schedules large enough that the
  // evaluation budget (not the engine's own schedule) is the binding
  // limit in every cell.
  core::MarsConfig tuning = mars_config(options);
  tuning.first_ga.generations = 1 << 12;
  tuning.first_ga.stall_generations = 0;  // budget decides, not the stall

  // Baseline context: what "no search" costs.
  const plan::PlanResult baseline =
      planner.plan(*plan::make_engine("baseline", tuning));
  std::cout << "=== Search-engine grid: engine x evaluation budget ("
            << model << ", F1 platform, seed " << options.seed << ") ===\n"
            << "baseline (no search): "
            << format_double(baseline.summary.simulated.millis(), 3)
            << " ms simulated\n\n";

  Table table({"Engine", "Budget /evals", "Evals used", "Analytic /ms",
               "Simulated /ms", "vs baseline", "Wall /ms", "Stopped"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const std::string& name : plan::engine_names()) {
    for (long long budget_evals : budgets) {
      const std::unique_ptr<plan::SearchEngine> engine =
          plan::make_engine(name, tuning);
      const plan::PlanResult result =
          planner.plan(*engine, plan::Budget::evaluations(budget_evals));
      const double vs_baseline =
          baseline.summary.simulated.count() > 0.0
              ? result.summary.simulated / baseline.summary.simulated
              : 1.0;
      table.add_row(
          {name, std::to_string(budget_evals),
           std::to_string(result.provenance.evaluations),
           format_double(result.summary.analytic_makespan.millis(), 3),
           format_double(result.summary.simulated.millis(), 3),
           format_double(vs_baseline, 3) + "x",
           format_double(result.provenance.elapsed.millis(), 2),
           plan::to_string(result.provenance.stopped)});
      csv_rows.push_back(
          {name, std::to_string(budget_evals),
           std::to_string(result.provenance.evaluations),
           format_double(result.summary.analytic_makespan.millis(), 4),
           format_double(result.summary.simulated.millis(), 4),
           format_double(vs_baseline, 4),
           format_double(result.provenance.elapsed.count(), 4),
           plan::to_string(result.provenance.stopped)});
      if (name == "baseline") break;  // budget-independent, one row
    }
    table.add_separator();
  }
  std::cout << table
            << "(budgets are evaluation counts, so rows are deterministic "
               "per seed; wall time is informational)\n";
  maybe_write_csv(options,
                  {"engine", "budget_evals", "evals_used", "analytic_ms",
                   "simulated_ms", "vs_baseline", "wall_s", "stopped"},
                  csv_rows);
}

// `write_csv` is off when the engine grid already claimed --csv (one CSV
// per run; use --threads-grid to export this grid instead).
void run_threads_grid(const Options& options, bool smoke, bool write_csv) {
  const std::string model = smoke ? "alexnet" : "resnet34";
  const long long budget_evals = smoke ? 40 : (options.quick ? 400 : 1600);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2}
            : (options.quick ? std::vector<int>{1, 2, 4}
                             : std::vector<int>{1, 2, 4, 8});

  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model(model, topo, designs, /*adaptive=*/true);

  core::MarsConfig tuning = mars_config(options);
  tuning.first_ga.generations = 1 << 12;
  tuning.first_ga.stall_generations = 0;

  // One engine per row family. The plain `anneal` engine is a single
  // Metropolis chain — inherently sequential — so the grid runs it with
  // chains=4: four chains priced as one batch per step is what threads
  // can actually spread (docs/PERFORMANCE.md).
  const auto engine_for = [&](const std::string& name, int threads)
      -> std::unique_ptr<plan::SearchEngine> {
    core::MarsConfig threaded = tuning;
    threaded.threads = threads;
    if (name == "anneal(chains=4)") {
      plan::AnnealConfig config;
      config.second = threaded.second;
      config.iterations = 1 << 20;
      config.chains = 4;
      config.seed = threaded.seed;
      config.threads = threads;
      return std::make_unique<plan::AnnealingEngine>(config);
    }
    return plan::make_engine(name, threaded);
  };

  std::cout << "\n=== Scaling grid: fitness threads x engine (" << model
            << ", budget " << budget_evals << " evals, seed " << options.seed
            << ") ===\n";

  Table table({"Engine", "Threads", "Wall /ms", "Speedup", "Simulated /ms",
               "Mapping vs 1 thread"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const std::string& name :
       {std::string("ga"), std::string("anneal(chains=4)"),
        std::string("random"), std::string("portfolio")}) {
    double serial_wall = 0.0;
    std::string serial_json;
    for (const int threads : thread_counts) {
      const std::unique_ptr<plan::SearchEngine> engine =
          engine_for(name, threads);
      const auto start = std::chrono::steady_clock::now();
      const plan::PlanResult result =
          planner.plan(*engine, plan::Budget::evaluations(budget_evals));
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const std::string mapping_json =
          core::to_json(result.mapping, planner.spine(), designs,
                        /*adaptive=*/true)
              .dump();
      if (threads == 1) {
        serial_wall = wall;
        serial_json = mapping_json;
      }
      const bool identical = mapping_json == serial_json;
      const double speedup = wall > 0.0 ? serial_wall / wall : 1.0;
      table.add_row({name, std::to_string(threads),
                     format_double(smoke ? 0.0 : wall * 1e3, 1),
                     format_double(smoke ? 1.0 : speedup, 2) + "x",
                     format_double(result.summary.simulated.millis(), 3),
                     identical ? "identical" : "DIFFERS"});
      csv_rows.push_back({name, std::to_string(threads),
                          format_double(wall, 4), format_double(speedup, 3),
                          format_double(result.summary.simulated.millis(), 4),
                          identical ? "identical" : "differs"});
      if (!identical) {
        std::cout << "ERROR: mapping at " << threads
                  << " threads differs from the serial mapping for " << name
                  << " — determinism contract broken\n";
        std::exit(1);
      }
    }
    table.add_separator();
  }
  std::cout << table
            << "(same budget and seed per row family; 'identical' asserts the "
               "byte-identity of the mapping JSON across thread counts. "
               "Speedups depend on the machine's core count.)\n";
  if (write_csv) {
    maybe_write_csv(options,
                    {"engine", "threads", "wall_s", "speedup", "simulated_ms",
                     "mapping_vs_serial"},
                    csv_rows);
  }
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  const mars::bench::Options options =
      mars::bench::parse_options(argc, argv, {"--smoke", "--threads-grid"});
  const bool smoke = options.has("--smoke");
  const bool threads_only = options.has("--threads-grid");
  if (!threads_only) mars::bench::run_engine_grid(options, smoke);
  mars::bench::run_threads_grid(options, smoke, /*write_csv=*/threads_only);
  return 0;
}
