// bench_paper: the paper-reproduction driver. Each section reproduces one
// artefact or study (docs/EXPERIMENTS.md):
//
//   table2 table3 table4   Tables II-IV: designs, latency vs the baseline,
//                          latency vs H2H across five bandwidth levels
//   fig2 fig3              Fig. 2 sharding semantics, Fig. 3 GA curves
//   a1 a2 a3 a4            ablations: two-level vs flat, ES vs ES+SS,
//                          search heuristics, analytic model vs simulator
//   p1 p2                  extensions: pipelined throughput, system scaling
//
// usage: bench_paper [--quick] [--seed N] [--csv PATH] [section ...]
// No section runs all of them in that order; --csv needs exactly one.
//
// Every run also checks the paper's direction claims: MARS <= baseline on
// each Table III row, MARS < H2H on each Table IV row, and analytic-vs-
// simulated ranking agreement >= 90% per A4 model. A violation names its
// row on stderr and the driver exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>

#include "bench_common.h"
#include "mars/accel/registry.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/core/report.h"
#include "mars/core/second_level.h"
#include "mars/parallel/sharding.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"

namespace mars::bench {
namespace {

using parallel::Dim;
using parallel::Strategy;

// Table III (paper, ms) — for shape, not absolute numbers.
struct Table3Row {
  const char* model;
  double baseline_ms;
  double mars_ms;
};
constexpr Table3Row kTable3[] = {
    {"alexnet", 0.832, 0.748},   {"vgg16", 20.6, 14.9},
    {"resnet34", 4.43, 2.76},    {"resnet101", 14.9, 7.95},
    {"wrn50_2", 16.7, 10.1},
};

// Table IV (paper, ms) at the five H2H bandwidth levels.
struct Level {
  const char* label;
  double gbps_value;
};
constexpr Level kLevels[] = {{"Low-(1Gbps)", 1.0},
                             {"Low(1.2Gbps)", 1.2},
                             {"Mid-(2Gbps)", 2.0},
                             {"Mid(4Gbps)", 4.0},
                             {"High(10Gbps)", 10.0}};
struct Table4Row {
  const char* model;
  double h2h[5];
  double mars[5];
};
constexpr Table4Row kTable4[] = {
    {"casia_surf", {360.0, 340.0, 260.0, 230.0, 180.0},
     {124.6, 120.3, 100.9, 74.3, 46.8}},
    {"facebagnet", {520.0, 450.0, 320.0, 230.0, 170.0},
     {237.4, 224.6, 159.4, 112.1, 76.5}},
};

constexpr double kMinRankingAgreement = 90.0;  // percent, per A4 model

/// What the sections share: one F1 topology and one registry per design
/// family, each F1 model's Planner, each F1 model's search at the bench
/// budget (run once per invocation: deterministic per model and seed),
/// and the claim checks.
struct Paper {
  const plan::Planner& f1_planner(const std::string& model) {
    auto it = planners.find(model);
    if (it != planners.end()) return it->second;
    auto planner = plan::Planner::for_model(model, f1, adaptive);
    return planners.emplace(model, std::move(planner)).first->second;
  }

  const core::MarsResult& f1_search(const std::string& model) {
    auto it = searches.find(model);
    if (it != searches.end()) return it->second;
    auto result = search(f1_planner(model).problem());
    return searches.emplace(model, std::move(result)).first->second;
  }

  /// One search on `problem` at the bench budget; `tweak` edits the config.
  core::MarsResult search(
      const core::Problem& problem,
      const std::function<void(core::MarsConfig&)>& tweak = {}) const {
    core::MarsConfig config = mars_config(options);
    if (tweak) tweak(config);
    return core::Mars(problem, config).search();
  }

  void claim(bool held, const std::string& violation) {
    if (!held) violations.push_back(violation);
  }

  const Options options;
  const accel::DesignRegistry adaptive = accel::table2_designs();
  const accel::DesignRegistry fixed = accel::h2h_designs();
  const topology::Topology f1 = topology::f1_16xlarge();
  std::map<std::string, plan::Planner> planners{};
  std::map<std::string, core::MarsResult> searches{};
  std::vector<std::string> violations{};
};

using Rows = std::vector<std::vector<std::string>>;

std::string ms(Seconds t) { return format_double(t.millis(), 2) + " ms"; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// "before->after (change)", the paper's figures for one row.
std::string paper_pair(double before, double after, int digits) {
  return format_double(before, digits) + "->" + format_double(after, digits) +
         " (" + signed_percent(after / before - 1.0, 1) + ")";
}

/// A generation -> best latency table of `history` (in seconds); its rows
/// also go to `csv` under `level`.
Table curve_table(const char* column, const char* level,
                  const std::vector<double>& history, Rows& csv) {
  Table table({"Generation", column});
  for (std::size_t g = 0; g < history.size(); ++g) {
    table.add_row({std::to_string(g), format_double(history[g] * 1e3, 3)});
    csv.push_back(
        {level, std::to_string(g), format_double(history[g] * 1e3, 4)});
  }
  return table;
}

/// Cycles of the whole model on the single design that runs it fastest.
double best_single_cycles(const accel::ProfileMatrix& profile) {
  double best = profile.total_cycles(0);
  for (accel::DesignId d = 1; d < profile.num_designs(); ++d) {
    best = std::min(best, profile.total_cycles(d));
  }
  return best;
}

// ------------------------------------------------------------------ table2

// The available accelerator designs, plus the per-layer profile (cycles /
// utilisation) that drives both the baseline's design choice and MARS's
// gene initialisation.
void table2(Paper& paper) {
  std::cout << "=== Table II: available accelerator designs ===\n";
  const accel::DesignRegistry& designs = paper.adaptive;
  Table table({"Design", "Name", "Freq", "#PEs", "Peak MAC/cyc",
               "Design Parameters"});
  for (accel::DesignId id : designs.ids()) {
    const accel::AcceleratorDesign& d = designs.design(id);
    table.add_row({std::to_string(id + 1), d.name(),
                   format_double(d.frequency().megahertz(), 0) + "MHz",
                   std::to_string(d.pe_count()),
                   format_double(d.peak_macs_per_cycle(), 0),
                   d.parameter_string()});
  }
  std::cout << table << '\n';

  std::cout << "Per-layer winners across the Table III workloads (which "
               "design minimises cycles; the heterogeneity MARS exploits):\n";
  Table winners({"Model", "Layers", "SuperLIP wins", "Systolic wins",
                 "Winograd wins", "Best-mix speedup vs best-single"});
  Rows csv_rows;
  for (const Table3Row& row : kTable3) {
    const plan::Planner& planner = paper.f1_planner(row.model);
    const accel::ProfileMatrix& profile = planner.profile();
    const int layers = planner.spine().size();

    std::vector<int> wins(static_cast<std::size_t>(designs.size()), 0);
    double mixed = 0.0;
    for (int l = 0; l < layers; ++l) {
      const accel::DesignId best = profile.best_design(l);
      ++wins[static_cast<std::size_t>(best)];
      mixed += profile.at(best, l).cycles;
    }
    const double best_single = best_single_cycles(profile);
    std::vector<std::string> cells = {
        row.model, std::to_string(layers), std::to_string(wins[0]),
        std::to_string(wins[1]), std::to_string(wins[2])};
    csv_rows.push_back(cells);
    cells.push_back(format_double(best_single / mixed, 3) + "x");
    csv_rows.back().push_back(format_double(best_single / mixed, 4));
    winners.add_row(cells);
  }
  std::cout << winners;
  maybe_write_csv(paper.options,
                  {"model", "layers", "superlip_wins", "systolic_wins",
                   "winograd_wins", "mix_speedup"},
                  csv_rows);

  std::cout << "\nUtilisation detail (vgg16): per-layer fraction of peak "
               "MACs achieved by each design.\n";
  const plan::Planner& vgg = paper.f1_planner("vgg16");
  const graph::ConvSpine& spine = vgg.spine();
  const accel::ProfileMatrix& profile = vgg.profile();
  Table util({"Layer", "Shape", "SuperLIP", "Systolic", "Winograd", "Winner"});
  for (int l = 0; l < spine.size(); ++l) {
    util.add_row({spine.node(l).name, graph::to_string(spine.node(l).shape),
                  format_double(profile.at(0, l).utilization, 2),
                  format_double(profile.at(1, l).utilization, 2),
                  format_double(profile.at(2, l).utilization, 2),
                  designs.design(profile.best_design(l)).name()});
  }
  std::cout << util;
}

// ------------------------------------------------------------------ table3

// Baseline vs MARS latency on the five CNN workloads over the F1-style
// adaptive multi-accelerator system. Claim: MARS <= baseline on each row.
void table3(Paper& paper) {
  std::cout << "=== Table III: latency comparison, baseline vs MARS (F1-style "
               "system: 8 FPGAs, 2 groups, 8 Gb/s intra-group, 2 Gb/s host) ===\n";

  Table table({"Model", "#Convs", "#Params", "MACs", "Baseline /ms", "MARS /ms",
               "Reduction", "Paper", "Mapping found by MARS"});
  Rows csv_rows;
  double reduction_sum = 0.0;

  for (const Table3Row& ref : kTable3) {
    const auto t0 = std::chrono::steady_clock::now();
    const plan::Planner& planner = paper.f1_planner(ref.model);
    const core::Mapping baseline =
        core::baseline_mapping(planner.problem(), planner.profile());
    const Seconds baseline_latency =
        core::MappingEvaluator(planner.problem()).evaluate(baseline).simulated;
    const core::MarsResult& result = paper.f1_search(ref.model);
    const Seconds mars_latency = result.summary.simulated;
    const double elapsed = seconds_since(t0);

    const double reduction = mars_latency / baseline_latency - 1.0;
    reduction_sum += reduction;
    paper.claim(mars_latency <= baseline_latency,
                std::string("table3 ") + ref.model + ": MARS " +
                    ms(mars_latency) + " > baseline " + ms(baseline_latency));

    const core::WorkloadSummary workload = core::summarize(planner.model());
    const std::string mapping =
        core::describe(result.mapping, planner.spine(), paper.adaptive, true);
    std::string mapping_line = mapping;
    std::replace(mapping_line.begin(), mapping_line.end(), '\n', ' ');
    const double paper_reduction = ref.mars_ms / ref.baseline_ms - 1.0;

    table.add_row({workload.name, std::to_string(workload.num_convs),
                   si_count(workload.params), si_count(workload.macs),
                   format_double(baseline_latency.millis(), 3),
                   format_double(mars_latency.millis(), 3),
                   signed_percent(reduction, 1),
                   paper_pair(ref.baseline_ms, ref.mars_ms, 3),
                   mapping_line.substr(0, 70)});
    csv_rows.push_back({workload.name,
                        format_double(baseline_latency.millis(), 4),
                        format_double(mars_latency.millis(), 4),
                        format_double(reduction * 100.0, 2),
                        format_double(ref.baseline_ms, 3),
                        format_double(ref.mars_ms, 3)});

    std::cout << "  [" << workload.name << "] baseline "
              << format_double(baseline_latency.millis(), 3) << " ms, MARS "
              << format_double(mars_latency.millis(), 3) << " ms ("
              << signed_percent(reduction, 1) << ", paper "
              << signed_percent(paper_reduction, 1) << "), search "
              << format_double(elapsed * 1e3, 1) << " ms, cache "
              << result.second_level_hits << "/"
              << (result.second_level_hits + result.second_level_misses)
              << "\n"
              << mapping;
  }

  std::cout << '\n' << table;
  std::cout << "Average latency reduction: "
            << signed_percent(reduction_sum / std::size(kTable3), 1)
            << " (paper: -32.2%)\n";
  maybe_write_csv(paper.options,
                  {"model", "baseline_ms", "mars_ms", "reduction_percent",
                   "paper_baseline_ms", "paper_mars_ms"},
                  csv_rows);
}

// ------------------------------------------------------------------ table4

// Fraction of MARS's layer shards that split spatial dims (H/W): the
// paper observes this rises as bandwidth falls.
double spatial_fraction(const core::Mapping& mapping) {
  int spatial = 0;
  int total = 0;
  for (const core::LayerAssignment& set : mapping.sets) {
    for (const Strategy& s : set.strategies) {
      ++total;
      if (s.ways_of(Dim::kH) > 1 || s.ways_of(Dim::kW) > 1) ++spatial;
    }
  }
  return total > 0 ? static_cast<double>(spatial) / total : 0.0;
}

// MARS vs H2H on heterogeneous multi-modal models over a fixed-design
// cloud, swept across the five H2H bandwidth levels. Claim: MARS < H2H on
// each row.
void table4(Paper& paper) {
  std::cout << "=== Table IV: latency (ms) comparison with H2H on "
               "heterogeneous models (fixed-design 8-FPGA cloud) ===\n";

  Rows csv_rows;
  for (const Table4Row& ref : kTable4) {
    Table table({"Bandwidth", "H2H /ms", "MARS /ms", "Reduction",
                 "Paper (H2H->MARS)", "Spatial-ES share"});
    double reduction_sum = 0.0;
    std::cout << "\n--- " << ref.model << " ---\n";
    for (std::size_t level = 0; level < std::size(kLevels); ++level) {
      const topology::Topology topo =
          topology::h2h_cloud(8, gbps(kLevels[level].gbps_value), 4);
      const plan::Planner planner =
          plan::Planner::for_model(ref.model, topo, paper.fixed, false);

      const Seconds h2h = core::H2HMapper(planner.problem()).map().simulated;
      const core::MarsResult result = paper.search(planner.problem());
      const Seconds mars_latency = result.summary.simulated;

      const double reduction = mars_latency / h2h - 1.0;
      reduction_sum += reduction;
      paper.claim(mars_latency < h2h,
                  std::string("table4 ") + ref.model + " " +
                      kLevels[level].label + ": MARS " + ms(mars_latency) +
                      " >= H2H " + ms(h2h) + " (" +
                      signed_percent(reduction, 1) + ")");
      const double spatial = spatial_fraction(result.mapping);
      table.add_row({kLevels[level].label, format_double(h2h.millis(), 2),
                     format_double(mars_latency.millis(), 2),
                     signed_percent(reduction, 1),
                     paper_pair(ref.h2h[level], ref.mars[level], 1),
                     format_double(spatial * 100.0, 0) + "%"});
      csv_rows.push_back({ref.model, format_double(kLevels[level].gbps_value, 1),
                          format_double(h2h.millis(), 4),
                          format_double(mars_latency.millis(), 4),
                          format_double(reduction * 100.0, 2),
                          format_double(spatial, 4)});
    }
    std::cout << table;
    std::cout << "Average reduction for " << ref.model << ": "
              << signed_percent(reduction_sum / std::size(kLevels), 1) << '\n';
  }
  std::cout << "\n(paper overall average: -59.4%)\n";
  maybe_write_csv(paper.options,
                  {"model", "bandwidth_gbps", "h2h_ms", "mars_ms",
                   "reduction_percent", "spatial_es_fraction"},
                  csv_rows);
}

// -------------------------------------------------------------------- fig2

// The ES/SS sharding semantics on a single Conv2d: the figure's three cases
// (default, ES={Cin,W}, ES={W}+SS={Cout}) and variants, with per-accelerator
// work, memory and communication.
void fig2(Paper& paper) {
  // The figure's example layer: a mid-network convolution.
  const graph::ConvShape conv{256, 256, 28, 28, 3, 3, 1, 1};
  const graph::DataType dtype = graph::DataType::kFix16;
  std::cout << "=== Fig. 2: parallelism strategies on Conv2d ("
            << graph::to_string(conv) << ") ===\n";

  struct Case {
    const char* label;
    Strategy strategy;
    int p;
  };
  const Case cases[] = {
      {"(a) default <N,N,N,N,N,N>", Strategy{}, 1},
      {"(b) ES={Cin,W}", Strategy({{Dim::kCin, 2}, {Dim::kW, 2}}, std::nullopt),
       4},
      {"(b') ES={H,W}", Strategy({{Dim::kH, 2}, {Dim::kW, 2}}, std::nullopt), 4},
      {"(c) ES={W}, SS={Cout}", Strategy({{Dim::kW, 2}}, Dim::kCout), 2},
      {"(c') ES={W:4}, SS={Cout}", Strategy({{Dim::kW, 4}}, Dim::kCout), 4},
      {"ES={Cout:4}", Strategy({{Dim::kCout, 4}}, std::nullopt), 4},
  };
  const accel::AcceleratorDesign& design = paper.adaptive.design(0);

  Table table({"Strategy", "p", "Phases", "Per-acc MACs", "Weights/acc",
               "Acts/acc", "Ring hop", "All-Reduce", "Compute /us"});
  Rows csv_rows;
  for (const Case& c : cases) {
    const parallel::ShardingPlan plan =
        parallel::make_plan(conv, dtype, c.strategy, c.p);
    const double compute_us =
        design.conv_latency(plan.local, dtype).micros() * plan.phases;
    table.add_row(
        {c.label, std::to_string(c.p), std::to_string(plan.phases),
         si_count(plan.local.macs() * plan.phases, 1),
         format_double(plan.weight_resident.kib(), 0) + " KiB",
         format_double((plan.input_live + plan.output_live).kib(), 0) + " KiB",
         plan.ring_hop_bytes.count() > 0
             ? format_double(plan.ring_hop_bytes.kib(), 0) + " KiB"
             : "-",
         plan.allreduce_group > 1
             ? "group " + std::to_string(plan.allreduce_group) + ", " +
                   format_double(plan.allreduce_bytes.kib(), 0) + " KiB"
             : "-",
         format_double(compute_us, 1)});
    csv_rows.push_back({c.label, std::to_string(c.p),
                        std::to_string(plan.phases),
                        format_double(plan.weight_resident.count(), 0),
                        format_double(plan.ring_hop_bytes.count(), 0),
                        format_double(compute_us, 3)});
  }
  std::cout << table;

  std::cout << "\nKey take-aways reproduced from the figure:\n"
            << "  * ES={Cin,W} spreads work 4x but needs an All-Reduce of the "
               "output halves (Cin is a reduction dim).\n"
            << "  * ES={W}, SS={Cout} keeps compute split while each "
               "accelerator holds only half the weights at a time, at the "
               "cost of ring transfers between phases.\n";
  maybe_write_csv(paper.options,
                  {"strategy", "p", "phases", "weight_bytes_per_acc",
                   "ring_hop_bytes", "compute_us"},
                  csv_rows);
}

// -------------------------------------------------------------------- fig3

// The two-level GA in action on VGG16 / F1: the first-level convergence
// curve and a second-level refinement curve for the winning skeleton.
void fig3(Paper& paper) {
  std::cout << "=== Fig. 3: two-level GA convergence (vgg16 on F1) ===\n";
  const plan::Planner& planner = paper.f1_planner("vgg16");

  core::MarsConfig config = mars_config(paper.options);
  config.first_ga.stall_generations = 0;  // full curve
  core::Mars mars(planner.problem(), config);
  const core::MarsResult result = mars.search();

  Rows csv_rows;
  std::cout << "First level (" << result.first_level.evaluations
            << " evaluations, " << result.second_level_misses
            << " distinct sub-problems, " << result.second_level_hits
            << " cache hits):\n"
            << curve_table("Best overall latency /ms", "first",
                           result.first_level.history, csv_rows);

  // Second-level curve on the winner's (first) largest set.
  const core::LayerAssignment& largest = *std::max_element(
      result.mapping.sets.begin(), result.mapping.sets.end(),
      [](const auto& a, const auto& b) {
        return a.num_layers() < b.num_layers();
      });
  core::LayerAssignment skeleton = largest;
  skeleton.strategies.clear();
  core::SecondLevelSearch second(planner.problem(), config.second);
  Rng rng(paper.options.seed + 1);
  ga::GaResult curve;
  (void)second.refine(skeleton, rng, nullptr, &curve);

  std::cout << "\nSecond level on " << topology::mask_to_string(largest.accs)
            << " (layers " << largest.begin << ".." << largest.end - 1
            << "):\n"
            << curve_table("Best set latency /ms", "second", curve.history,
                           csv_rows);

  std::cout << "\nFinal mapping ("
            << format_double(result.summary.simulated.millis(), 3) << " ms):\n"
            << core::describe(result.mapping, planner.spine(), paper.adaptive,
                              true);
  maybe_write_csv(paper.options, {"level", "generation", "best_ms"}, csv_rows);
}

// ---------------------------------------------------------------------- a1

// The paper's central algorithmic claim (Section V): tuning everything in
// one pass falls into local optima. The two-level GA against a flat genome
// deciding sets, designs AND per-layer strategies at the same generation
// budget.
void a1(Paper& paper) {
  std::cout << "=== Ablation A1: two-level GA vs flat single-level GA ===\n";
  Table table({"Model", "Two-level /ms", "Flat /ms", "Flat vs two-level"});
  Rows csv_rows;

  for (const char* model : {"alexnet", "vgg16", "resnet34"}) {
    const Seconds two_level = paper.f1_search(model).summary.simulated;
    const Seconds flat_latency =
        paper.search(paper.f1_planner(model).problem(),
                     [](core::MarsConfig& c) { c.two_level = false; })
            .summary.simulated;

    table.add_row({model, format_double(two_level.millis(), 3),
                   format_double(flat_latency.millis(), 3),
                   signed_percent(flat_latency / two_level - 1.0, 1)});
    csv_rows.push_back({model, format_double(two_level.millis(), 4),
                        format_double(flat_latency.millis(), 4)});
  }
  std::cout << table
            << "(positive % = the flat search is slower: the division into "
               "two levels pays off)\n";
  maybe_write_csv(paper.options, {"model", "two_level_ms", "flat_ms"},
                  csv_rows);
}

// ---------------------------------------------------------------------- a2

std::string footprint(const core::MarsResult& r) {
  return format_double(r.summary.worst_set_footprint.mib(), 1) + " MiB";
}

// Shared shards (Section IV): how much of MARS's win needs SS on top of
// exclusive shards, and what SS does to the worst per-accelerator memory
// footprint.
void a2(Paper& paper) {
  std::cout << "=== Ablation A2: ES-only vs ES+SS strategy space ===\n";
  Table table({"Model", "ES+SS /ms", "ES-only /ms", "ES-only vs ES+SS",
               "Footprint ES+SS", "Footprint ES-only"});
  Rows csv_rows;
  const auto no_ss = [](core::MarsConfig& c) { c.second.enable_ss = false; };

  for (const char* model : {"vgg16", "resnet34", "wrn50_2"}) {
    const core::MarsResult& r_ss = paper.f1_search(model);
    const core::MarsResult r_es =
        paper.search(paper.f1_planner(model).problem(), no_ss);
    table.add_row(
        {model, format_double(r_ss.summary.simulated.millis(), 3),
         format_double(r_es.summary.simulated.millis(), 3),
         signed_percent(r_es.summary.simulated / r_ss.summary.simulated - 1.0, 1),
         footprint(r_ss), footprint(r_es)});
    csv_rows.push_back({model,
                        format_double(r_ss.summary.simulated.millis(), 4),
                        format_double(r_es.summary.simulated.millis(), 4),
                        format_double(r_ss.summary.worst_set_footprint.mib(), 2),
                        format_double(r_es.summary.worst_set_footprint.mib(), 2)});
  }
  std::cout << table;

  // SS's memory role sharpens under tight DRAM (Section IV's motivation).
  std::cout << "\nTight-DRAM variant (48 MiB per accelerator, vgg16):\n";
  const topology::Topology tight =
      topology::f1_16xlarge(gbps(8.0), gbps(2.0), mebibytes(48.0));
  const plan::Planner planner =
      plan::Planner::for_model("vgg16", tight, paper.adaptive, true);
  const core::MarsResult r_ss = paper.search(planner.problem());
  const core::MarsResult r_es = paper.search(planner.problem(), no_ss);
  for (const auto& [label, r] : {std::pair{"  ES+SS:   ", &r_ss},
                                 std::pair{"  ES-only: ", &r_es}}) {
    std::cout << label << format_double(r->summary.simulated.millis(), 3)
              << " ms, memory_ok=" << (r->summary.memory_ok ? "yes" : "NO")
              << ", worst set " << footprint(*r) << "\n";
  }
  maybe_write_csv(paper.options,
                  {"model", "es_ss_ms", "es_only_ms", "es_ss_footprint_mib",
                   "es_only_footprint_mib"},
                  csv_rows);
}

// ---------------------------------------------------------------------- a3

int generations_to_95_percent(const ga::GaResult& result) {
  const std::vector<double>& h = result.history;
  if (h.empty()) return 0;
  const auto first = std::find_if(h.begin(), h.end(), [&](double best) {
    return best <= h.back() * 1.05;
  });
  return static_cast<int>(std::min(first, h.end() - 1) - h.begin());
}

// The Section V heuristics (profiled design-gene initialisation, baseline
// seeding, the edge-removal AccSet candidate family), each switched off
// individually: final quality and the generation at which the search got
// within 5% of its final value.
void a3(Paper& paper) {
  std::cout << "=== Ablation A3: search heuristics (vgg16 on F1) ===\n";
  const plan::Planner& planner = paper.f1_planner("vgg16");

  struct Variant {
    const char* label;
    bool profiled_init;
    bool seed_baseline;
    bool heuristic_candidates;
  };
  const Variant variants[] = {
      {"full heuristics", true, true, true},
      {"no profiled init", false, true, true},
      {"no baseline seed", true, false, true},
      {"no init at all", false, false, true},
      {"trivial candidates", true, true, false},
  };

  Table table({"Variant", "Latency /ms", "Gens to 95%", "Evaluations"});
  Rows csv_rows;
  for (const Variant& v : variants) {
    // Deliberately tight budget: the heuristics' value is reaching a good
    // mapping EARLY; with a lavish budget every variant converges.
    const core::MarsResult result =
        paper.search(planner.problem(), [&](core::MarsConfig& config) {
          config.first_ga.population = paper.options.quick ? 8 : 12;
          config.first_ga.generations = paper.options.quick ? 6 : 12;
          config.first_ga.stall_generations = 0;  // comparable curves
          config.profiled_init = v.profiled_init;
          config.seed_baseline = v.seed_baseline;
          config.heuristic_candidates = v.heuristic_candidates;
        });
    const double latency_ms = result.summary.simulated.millis();
    const std::string gens =
        std::to_string(generations_to_95_percent(result.first_level));
    table.add_row({v.label, format_double(latency_ms, 3), gens,
                   std::to_string(result.first_level.evaluations)});
    csv_rows.push_back({v.label, format_double(latency_ms, 4), gens});
  }
  std::cout << table
            << "(the heuristics buy faster convergence and/or better final "
               "mappings; 'trivial candidates' removes the edge-removal "
               "family so only whole-system/singleton sets exist)\n";
  maybe_write_csv(paper.options, {"variant", "latency_ms", "gens_to_95"},
                  csv_rows);
}

// ---------------------------------------------------------------------- a4

/// A random mapping: a random decoded partition, random designs, random
/// contiguous layer cuts and a random strategy per layer.
core::Mapping random_mapping(
    const plan::Planner& planner,
    const std::vector<topology::AccSetCandidate>& candidates, Rng& rng) {
  const int n = planner.spine().size();
  std::vector<double> priorities;
  priorities.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    priorities.push_back(rng.uniform());
  }
  const std::vector<topology::AccMask> partition =
      topology::decode_partition(planner.topology(), candidates, priorities);

  // Sorted cuts always hold 0 and n, so the non-empty sets cover 0..n.
  std::vector<int> cuts{0, n};
  for (std::size_t i = 1; i < partition.size(); ++i) {
    cuts.push_back(rng.uniform_int(0, n));
  }
  std::sort(cuts.begin(), cuts.end());

  core::Mapping mapping;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    core::LayerAssignment set;
    set.accs = partition[i];
    set.design = rng.uniform_int(0, planner.designs().size() - 1);
    set.begin = cuts[i];
    set.end = cuts[i + 1];
    if (set.begin == set.end) continue;
    const int p = set.num_accs();
    for (int l = set.begin; l < set.end; ++l) {
      const auto options =
          parallel::enumerate_strategies(planner.spine().node(l).shape, p, 3);
      set.strategies.push_back(options[rng.index(options.size())]);
    }
    mapping.sets.push_back(std::move(set));
  }
  return mapping;
}

// Analytical cost model vs event-driven simulator: the GA climbs the
// closed-form model, the tables report the simulator. Error distribution
// and ranking agreement over a random mapping sweep, per model. Claim:
// ranking agreement >= 90% per model.
void a4(Paper& paper) {
  std::cout << "=== A4: analytical model vs event-driven simulator ===\n";
  Table table({"Model", "Samples", "Median |err|", "P90 |err|", "Max |err|",
               "Ranking agreement"});
  Rows csv_rows;
  const std::vector<topology::AccSetCandidate> candidates =
      topology::accset_candidates(paper.f1);

  const int samples = paper.options.quick ? 10 : 40;
  for (const char* model : {"alexnet", "vgg16", "resnet34", "casia_surf"}) {
    const plan::Planner& planner = paper.f1_planner(model);
    const core::MappingEvaluator evaluator(planner.problem());
    Rng rng(paper.options.seed + 99);

    std::vector<double> errors;
    std::vector<std::pair<double, double>> points;  // (analytic, simulated)
    for (int s = 0; s < samples; ++s) {
      const core::EvaluationSummary summary =
          evaluator.evaluate(random_mapping(planner, candidates, rng));
      const double a = summary.analytic_makespan.count();
      const double m = summary.simulated.count();
      errors.push_back(std::abs(m - a) / m);
      points.emplace_back(a, m);
    }
    std::sort(errors.begin(), errors.end());

    int checked = 0;
    int agreed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        if (std::max(points[i].first, points[j].first) <
            1.2 * std::min(points[i].first, points[j].first)) {
          continue;  // too close to call
        }
        ++checked;
        if ((points[i].first < points[j].first) ==
            (points[i].second < points[j].second)) {
          ++agreed;
        }
      }
    }
    const double median = errors[errors.size() / 2];
    const double p90 = errors[errors.size() * 9 / 10];
    const double agreement = checked > 0 ? 100.0 * agreed / checked : 100.0;
    paper.claim(agreement >= kMinRankingAgreement,
                std::string("a4 ") + model + ": ranking agreement " +
                    format_double(agreement, 1) + "% < " +
                    format_double(kMinRankingAgreement, 0) + "%");
    table.add_row({model, std::to_string(samples),
                   format_double(median * 100.0, 1) + "%",
                   format_double(p90 * 100.0, 1) + "%",
                   format_double(errors.back() * 100.0, 1) + "%",
                   format_double(agreement, 1) + "% of " +
                       std::to_string(checked) + " pairs"});
    csv_rows.push_back({model, format_double(median, 4), format_double(p90, 4),
                        format_double(errors.back(), 4),
                        format_double(agreement, 2)});
  }
  std::cout << table
            << "(err = |simulated - analytic| / simulated; ranking agreement "
               "over pairs with a >20% analytic gap)\n";
  maybe_write_csv(paper.options,
                  {"model", "median_err", "p90_err", "max_err",
                   "ranking_agreement_percent"},
                  csv_rows);
}

// ---------------------------------------------------------------------- p1

// Pipelined multi-image throughput (beyond the paper's single-inference
// latency): with several accelerator sets consecutive images overlap, so
// the latency-optimal mapping is not necessarily the throughput-optimal
// one. The MARS mapping against a two-set pipeline across batch sizes.
void p1(Paper& paper) {
  std::cout << "=== P1 (extension): pipelined throughput across accelerator "
               "sets (resnet34 on F1) ===\n";
  const plan::Planner& planner = paper.f1_planner("resnet34");
  const core::MappingEvaluator evaluator(planner.problem());
  const core::Mapping& latency_best = paper.f1_search("resnet34").mapping;

  // Two groups, layer split balancing profiled compute.
  const core::SecondLevelSearch search(planner.problem(),
                                       core::SecondLevelConfig{});
  core::Mapping two_set;
  for (const core::LayerAssignment& set :
       core::baseline_skeleton(planner.problem(), planner.profile()).sets) {
    two_set.sets.push_back(set);
    two_set.sets.back().strategies = search.greedy(set).strategies;
  }

  Table table({"Batch", "MARS-latency mapping img/s", "Two-set pipeline img/s",
               "Two-set speedup", "Two-set pipeline overlap"});
  Rows csv_rows;
  for (int batch : {1, 2, 4, 8, 16}) {
    const auto a = evaluator.evaluate_throughput(latency_best, batch);
    const auto b = evaluator.evaluate_throughput(two_set, batch);
    table.add_row({std::to_string(batch),
                   format_double(a.images_per_second, 1),
                   format_double(b.images_per_second, 1),
                   format_double(b.images_per_second / a.images_per_second, 2) +
                       "x",
                   format_double(b.pipeline_speedup, 2) + "x"});
    csv_rows.push_back({std::to_string(batch),
                        format_double(a.images_per_second, 2),
                        format_double(b.images_per_second, 2),
                        format_double(b.pipeline_speedup, 3)});
  }
  std::cout << table
            << "(a two-set mapping loses on single-image latency but its "
               "stage pipeline catches up as the batch grows — the "
               "latency/throughput trade the paper leaves to future work)\n";
  maybe_write_csv(paper.options,
                  {"batch", "latency_mapping_ips", "two_set_ips",
                   "two_set_pipeline_speedup"},
                  csv_rows);
}

// ---------------------------------------------------------------------- p2

// Scalability, which the paper motivates multi-accelerator systems with:
// resnet34 across system sizes (groups x per-group), with MARS latency,
// parallel efficiency against one accelerator, and search cost.
void p2(Paper& paper) {
  std::cout << "=== P2 (extension): scaling resnet34 across system sizes ===\n";

  // Single-accelerator reference (best single design, no communication).
  const Seconds single = paper.adaptive.design(0).frequency().time_for(
      best_single_cycles(paper.f1_planner("resnet34").profile()));
  std::cout << "1 accelerator (best single design, compute only): "
            << format_double(single.millis(), 2) << " ms\n";

  Table table({"System", "Accs", "MARS /ms", "Speedup", "Efficiency",
               "Sets used", "Search /ms"});
  Rows csv_rows;
  for (const auto& [groups, per_group] :
       {std::pair{1, 2}, {1, 4}, {2, 2}, {2, 4}, {2, 8}, {4, 4}}) {
    const topology::Topology topo =
        topology::grouped(groups, per_group, gbps(8.0), gbps(2.0));
    const plan::Planner planner =
        plan::Planner::for_model("resnet34", topo, paper.adaptive, true);
    const auto t0 = std::chrono::steady_clock::now();
    const core::MarsResult result = paper.search(planner.problem());
    const double elapsed = seconds_since(t0);

    const int accs = groups * per_group;
    const double speedup = single / result.summary.simulated;
    const std::string label =
        std::to_string(groups) + "x" + std::to_string(per_group);
    table.add_row({label, std::to_string(accs),
                   format_double(result.summary.simulated.millis(), 2),
                   format_double(speedup, 2) + "x",
                   format_double(100.0 * speedup / accs, 0) + "%",
                   std::to_string(result.mapping.sets.size()),
                   format_double(elapsed * 1e3, 1)});
    csv_rows.push_back({label, std::to_string(accs),
                        format_double(result.summary.simulated.millis(), 3),
                        format_double(speedup, 3)});
  }
  std::cout << table
            << "(efficiency falls as communication and shard fragmentation "
               "grow — the design space MARS navigates)\n";
  maybe_write_csv(paper.options, {"system", "accs", "mars_ms", "speedup"},
                  csv_rows);
}

struct Section {
  const char* name;
  void (*run)(Paper&);
};
constexpr Section kSections[] = {
    {"table2", table2}, {"table3", table3}, {"table4", table4},
    {"fig2", fig2},     {"fig3", fig3},     {"a1", a1},
    {"a2", a2},         {"a3", a3},         {"a4", a4},
    {"p1", p1},         {"p2", p2},
};

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  using namespace mars::bench;
  std::string sections;
  for (const Section& s : kSections) {
    sections += (sections.empty() ? "" : "|") + std::string(s.name);
  }
  Paper paper{parse_options(argc, argv, {}, sections + " ...")};
  std::vector<const Section*> chosen;
  for (const std::string& name : paper.options.positional) {
    const Section* it =
        std::find_if(std::begin(kSections), std::end(kSections),
                     [&](const Section& s) { return name == s.name; });
    if (it == std::end(kSections)) {
      usage_error(paper.options, "unknown section '" + name + "'");
    }
    chosen.push_back(it);
  }
  if (chosen.empty()) {
    for (const Section& s : kSections) chosen.push_back(&s);
  }
  if (paper.options.csv_path && chosen.size() != 1) {
    usage_error(paper.options, "--csv needs exactly one section, got " +
                                   std::to_string(chosen.size()));
  }

  for (const Section* section : chosen) section->run(paper);
  for (const std::string& violation : paper.violations) {
    std::cerr << "claim check FAILED: " << violation << '\n';
  }
  return paper.violations.empty() ? 0 : 1;
}
