// cctp_bench: the CCTP benchmark binary.
//
//   cctp_bench --workload <sc_payments|multi_sc|cluster_reorg> --seed <n>
//              --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 sets the workload up several times (reporting the median
// set-up time), then runs one untraced timed phase and prints the
// end-to-end metrics. --trace 1 runs the untraced phase and then, on a
// fresh set-up with the same seed, the traced one; it checks both end on
// the same MC tip and SC commitments and prints the per-layer metrics.
// The work of a run is fixed by (workload, --seconds): the same seed and
// seconds give the same inputs on any host.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when an output check fails.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace cctpbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"mc_blocks_per_s", "blocks/s"},
    {"step_ms_p50", "ms"},
    {"step_ms_p95", "ms"},
    {"peak_rss_mb", "MB"},
};

// Per MC block unless the unit says otherwise. A layer a workload does not
// exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"latus.forge_ms", "ms/block"},
    {"latus.cert_ms", "ms/block"},
    {"latus.cert_ms_p50", "ms/cert"},
    {"latus.epoch_steps", "count/cert"},
    {"latus.payments_applied", "count/block"},
    {"latus.payments_dropped", "count/block"},
    {"latus.bts_applied", "count/block"},
    {"latus.observe_ms", "ms/block"},
    {"latus.btr_ms_p50", "ms/btr"},
    {"latus.csw_ms_p50", "ms/csw"},
    {"snark.base_proofs", "count/cert"},
    {"snark.merge_proofs", "count/cert"},
    {"snark.merge_depth", "count/cert"},
    {"snark.mc_verifies", "count/block"},
    {"snark.mc_verify_ms", "ms/block"},
    {"crypto.mc_sig_checks", "count/block"},
    {"crypto.mc_sig_verify_ms", "ms/block"},
    {"crypto.gen_signatures", "count/block"},
    {"merkle.mst_occupied", "count/block"},
    {"merkle.commitment_leaves", "count/block"},
    {"mainchain.build_block_ms", "ms/block"},
    {"mainchain.submit_block_ms", "ms/block"},
    {"mainchain.block_items", "count/block"},
    {"mainchain.include_ratio", "ratio"},
    {"mainchain.connect_ms", "ms/block"},
    {"mainchain.disconnect_ms", "ms/block"},
    {"mainchain.reorgs", "count/block"},
    {"mainchain.reorg_depth_max", "blocks"},
    {"mainchain.blocks_disconnected", "count/block"},
    {"mainchain.orphans_buffered", "count/block"},
    {"mainchain.orphans_evicted", "count/block"},
    {"parallel.checks_executed", "count/block"},
    {"parallel.batches", "count/block"},
    {"parallel.batch_size_mean", "count/batch"},
    {"parallel.cache_hit_ratio", "ratio"},
    {"net.mine_ms", "ms/block"},
    {"net.deliver_ms", "ms/block"},
    {"net.events_per_block", "count/block"},
    {"net.msgs_per_block", "count/block"},
    {"net.bytes_per_block", "bytes/block"},
    {"net.headers_received", "count/block"},
    {"net.blocks_downloaded", "count/block"},
    {"net.stalled_rerequests", "count/block"},
    {"net.encode_cache_hit_ratio", "ratio"},
    {"net.wire_dedup_hits", "count/block"},
    {"net.duplicates", "count/block"},
    {"net.catchup_ms", "ms"},
    {"net.catchup_sim_ticks", "ticks"},
    {"net.catchup_rounds", "count"},
    {"core.step_self_ms", "ms/block"},
    {"sim.gen_ms", "ms/block"},
    {"obs.trace_overhead", "ratio"},
};

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, std::uint64_t size);
  /// Units of fixed work (epochs, MC blocks or races) per second of
  /// --seconds. At 10 s every workload makes at least 200 steps, so at
  /// least ten samples lie beyond step_ms_p95.
  double units_per_second;
};

const WorkloadDef kWorkloads[] = {
    {"sc_payments", make_sc_payments, 2.5},
    {"multi_sc", make_multi_sc, 20.0},
    {"cluster_reorg", make_cluster_reorg, 6.0},
};

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (val == w.name) opt.workload = &w;
      }
    } else if (key == "--seed") {
      auto [_, ec] = std::from_chars(val.data(), val.data() + val.size(),
                                     opt.seed);
      if (ec != std::errc{}) return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt.workload != nullptr && opt.seconds > 0 &&
         opt.trace >= 0;
}

std::string number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

void print_classes(const Timeline& t) {
  std::printf("steps %zu mc_blocks %llu timed_ms %.3f gen_ms %.3f\n",
              t.step_ms.size(), static_cast<unsigned long long>(t.mc_blocks),
              t.total_ms(), t.gen.ms());
  for (std::size_t c = 0; c < kStepClassCount; ++c) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < t.step_ms.size(); ++i) {
      if (static_cast<std::size_t>(t.step_class[i]) == c) {
        ms.push_back(t.step_ms[i]);
      }
    }
    if (ms.empty()) continue;
    std::printf("class %-12s count %5zu median_ms %10.3f min_ms %10.3f "
                "max_ms %10.3f\n",
                to_string(static_cast<StepClass>(c)), ms.size(), median(ms),
                percentile(ms, 0.0), percentile(ms, 1.0));
  }
}

int run(const Options& opt) {
  const std::uint64_t size = static_cast<std::uint64_t>(std::max(
      1.0, std::round(opt.seconds * opt.workload->units_per_second)));
  std::printf("workload %s seed %llu seconds %s size %llu trace %d\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              number(opt.seconds).c_str(),
              static_cast<unsigned long long>(size), opt.trace);
  auto make = [&] { return opt.workload->make(opt.seed, size); };

  Checks checks;
  std::vector<std::pair<const MetricDef*, double>> metrics;
  std::uint64_t attempted = 0, failed = 0;

  if (opt.trace == 0) {
    std::unique_ptr<Workload> w;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) {
      w.reset();
      const std::int64_t t0 = now_ns();
      w = make();
      w->setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      std::printf("setup %d %.6f s\n", k, setup_s.back());
    }
    Timeline t;
    w->run(t, nullptr);
    w->finish();
    checks.merge(w->checks());
    print_classes(t);
    w->ledger().print();
    attempted = w->ledger().attempted();
    failed = w->ledger().failed();
    const double values[] = {
        median(setup_s),
        static_cast<double>(t.mc_blocks) / (t.total_ms() / 1e3),
        percentile(t.step_ms, 0.50),
        percentile(t.step_ms, 0.95),
        peak_rss_mb(),
    };
    const std::size_t samples[] = {setup_s.size(), t.step_ms.size(),
                                   t.step_ms.size(), t.step_ms.size(), 1};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(&kEndToEnd[i], values[i]);
      std::printf("metric %-16s %14.6f %-8s samples %zu\n", kEndToEnd[i].name,
                  values[i], kEndToEnd[i].unit, samples[i]);
    }
  } else {
    Timeline untraced;
    EndState untraced_end;
    {
      auto w = make();
      w->setup();
      w->run(untraced, nullptr);
      w->finish();
      checks.merge(w->checks());
      untraced_end = w->end_state();
    }
    Timeline traced;
    Tracer tracer;
    auto w = make();
    w->setup();
    w->run(traced, &tracer);
    w->finish();
    checks.merge(w->checks());
    print_classes(traced);
    w->ledger().print();
    attempted = w->ledger().attempted();
    failed = w->ledger().failed();
    checks.expect(w->end_state() == untraced_end,
                  "traced run does not end on the untraced run's MC tip and "
                  "SC commitments");
    checks.expect(traced.step_ms.size() == untraced.step_ms.size(),
                  "traced and untraced runs made different step counts");

    LayerMetrics layer;
    w->layer_metrics(traced, layer);
    const double blocks = static_cast<double>(traced.mc_blocks);
    const auto self = tracer.self_ms();
    const auto total = tracer.total_ms();
    auto get = [](const std::map<std::string, double>& m, const char* k) {
      auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    for (const char* span : {"latus.forge", "latus.cert", "latus.observe",
                             "mainchain.build_block",
                             "mainchain.submit_block", "net.mine",
                             "net.deliver"}) {
      layer[std::string(span) + "_ms"] = get(self, span) / blocks;
    }
    layer["latus.btr_ms_p50"] = median(tracer.durations_ms("latus.btr"));
    layer["latus.csw_ms_p50"] = median(tracer.durations_ms("latus.csw"));
    layer["core.step_self_ms"] = get(self, "step") / blocks;
    layer["sim.gen_ms"] = traced.gen.ms() / blocks;
    layer["obs.trace_overhead"] = traced.total_ms() / untraced.total_ms();

    // Self times partition the root spans: they must add up to the
    // traced total, and the step spans must cover the timed steps.
    double self_sum = 0, root_sum = 0;
    for (const auto& [name, ms] : self) self_sum += ms;
    for (const Span& s : tracer.spans()) {
      if (s.parent < 0) root_sum += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    }
    checks.expect(std::fabs(self_sum - root_sum) <= 1e-6 * root_sum + 1e-6,
                  "span self times do not sum to the traced total");
    checks.expect(std::fabs(get(total, "step") - traced.total_ms()) <=
                      0.01 * traced.total_ms(),
                  "step spans do not cover the timed step total");
    std::printf("self_ms total %.3f over %zu spans\n", self_sum,
                tracer.spans().size());
    for (const auto& [name, ms] : self) {
      std::printf("self_ms %-24s %12.3f share %.4f\n", name.c_str(), ms,
                  self_sum > 0 ? ms / self_sum : 0.0);
    }
    if (!opt.spans_path.empty()) tracer.write(opt.spans_path);

    for (const auto& def : kPerLayer) {
      auto it = layer.find(def.name);
      metrics.emplace_back(&def, it == layer.end() ? 0.0 : it->second);
    }
  }

  for (const auto& [def, v] : metrics) {
    checks.expect(std::isfinite(v),
                  std::string("metric ") + def->name + " is not finite");
  }
  checks.print();
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, v] = metrics[i];
    json += i == 0 ? "" : ", ";
    json += std::string("\"") + def->name + "\": {\"value\": " +
            number(std::isfinite(v) ? v : 0.0) + ", \"unit\": \"" + def->unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace cctpbench

int main(int argc, char** argv) {
  cctpbench::Options opt;
  if (!cctpbench::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: cctp_bench --workload <sc_payments|multi_sc|"
                 "cluster_reorg> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n");
    return 2;
  }
  try {
    return cctpbench::run(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "cctp_bench: %s\n", e.what());
    return 3;
  }
}
