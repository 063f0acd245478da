// SMN replay benchmark: drives the SmnController over a generated WAN trace
// and prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//   perfbench --workload <telemetry_replay|large_wan> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// A run generates its inputs from the seed (untimed), times kExtraSetups
// setups, then replays whole rounds (fresh setup + the full sim-time
// schedule) until --seconds of rounds have passed, and last runs the
// end-of-run correctness checks on the system of the final round. With
// --trace 1, a warm-up round is followed by traced and untraced rounds in
// turn, ending untraced, so each traced round has an untraced neighbour
// past the warm-up for the tracing overhead. --out holds the spill
// directories and the span file.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/contracts.h"

namespace {

using namespace perfbench;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Operation classes in print order. The result line counts the calls into
/// the system; re-solves happen inside ticks and checks are the benchmark's
/// own, so neither adds to it.
struct OpClass {
  const char* name;
  OpCount Ops::*count;
  bool call;
};
constexpr OpClass kOpClasses[] = {
    {"ingest", &Ops::ingest, true}, {"retention", &Ops::retention, true},
    {"read", &Ops::read, true},     {"tick", &Ops::tick, true},
    {"resolve", &Ops::resolve, false}, {"plan", &Ops::plan, true},
    {"fed", &Ops::fed, true},       {"sweep", &Ops::sweep, true},
    {"incident", &Ops::incident, true}, {"warm_gate", &Ops::warm_gate, true},
    {"check", &Ops::check, false}};

void add_ops(Ops& total, const Ops& r) {
  for (const OpClass& c : kOpClasses) {
    (total.*c.count).attempted += (r.*c.count).attempted;
    (total.*c.count).failed += (r.*c.count).failed;
  }
  total.read_shed += r.read_shed;
  total.read_deadline_exceeded += r.read_deadline_exceeded;
}

template <typename F>
std::vector<double> pooled(const std::vector<const Round*>& rounds, F field) {
  std::vector<double> out;
  for (const Round* r : rounds) {
    const std::vector<double>& v = field(*r);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

template <typename F>
std::vector<double> per_round(const std::vector<const Round*>& rounds, F field) {
  std::vector<double> out;
  for (const Round* r : rounds) out.push_back(field(*r));
  return out;
}

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Resident set of this process now, and its peak so far, in MiB.
double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> end_to_end(const std::vector<const Round*>& rounds,
                               const std::vector<double>& setups, double peak_mb) {
  double records = 0.0, ingest_s = 0.0;
  for (const Round* r : rounds) {
    records += static_cast<double>(r->records);
    ingest_s += r->ingest_s;
  }
  auto pool = [&](auto field) { return pooled(rounds, field); };
  const std::vector<double> reads = pool([](const Round& r) -> auto& { return r.read_ms; });
  const std::vector<double> incidents =
      pool([](const Round& r) -> auto& { return r.incident_ms; });
  return {
      {"setup_s", median(setups), "s"},
      {"replay_s", median(per_round(rounds, [](const Round& r) { return r.replay_s; })), "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"store_mb", median(per_round(rounds, [](const Round& r) { return r.store_mb; })), "MB"},
      {"ingest_mrps", ratio(records, ingest_s) / 1e6, "Mrec/s"},
      {"query_ms_p50", quantile(reads, 0.5), "ms"},
      {"query_ms_p90", quantile(reads, 0.9), "ms"},
      {"incident_ms_p50", quantile(incidents, 0.5), "ms"},
      {"incident_ms_p90", quantile(incidents, 0.9), "ms"},
      {"plan_s", median(pool([](const Round& r) -> auto& { return r.plan_s; })), "s"},
      {"resolve_s", median(pool([](const Round& r) -> auto& { return r.resolve_s; })), "s"},
      {"fed_solve_s", median(pool([](const Round& r) -> auto& { return r.fed_s; })), "s"},
      {"sweep_s", median(pool([](const Round& r) -> auto& { return r.sweep_s; })), "s"},
  };
}

/// Tracing overhead: each traced round's controller-call wall minus the
/// mean of the untraced rounds next to it, leaving out the warm-up round 0;
/// averaged over the traced rounds.
double trace_overhead_ms(const std::vector<Round>& rounds, const std::vector<bool>& is_traced) {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (!is_traced[i]) continue;
    double near = 0.0;
    int k = 0;
    for (const std::size_t j : {i - 1, i + 1}) {
      if (j >= 1 && j < rounds.size() && !is_traced[j]) {
        near += rounds[j].calls_ms;
        ++k;
      }
    }
    if (k == 0) continue;
    sum += rounds[i].calls_ms - near / k;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

std::vector<Metric> per_layer(const std::vector<const Round*>& traced, double overhead_ms) {
  auto pool = [&](auto field) { return median(pooled(traced, field)); };
  auto each = [&](auto field) { return median(per_round(traced, field)); };
  auto count = [&](auto field) {
    return median(per_round(traced, [&](const Round& r) { return static_cast<double>(field(r)); }));
  };
  double call_ms[6] = {}, probe_ms[6] = {};
  for (const Round* r : traced) {
    const Layers& L = r->layers;
    const double calls[] = {L.read_call_ms, L.incident_call_ms, L.plan_call_ms,
                            L.resolve_call_ms, L.fed_call_ms, L.sweep_call_ms};
    const double probes[] = {L.read_probe_ms, L.incident_probe_ms, L.plan_probe_ms,
                             L.resolve_probe_ms, L.fed_probe_ms, L.sweep_probe_ms};
    for (int i = 0; i < 6; ++i) {
      call_ms[i] += calls[i];
      probe_ms[i] += probes[i];
    }
  }
  const double traced_calls = median(per_round(traced, [](const Round& r) { return r.calls_ms; }));
  return {
      {"topology.wan_build_ms", each([](const Round& r) { return r.layers.wan_build_ms; }), "ms"},
      {"smn.controller_build_ms", each([](const Round& r) { return r.layers.controller_build_ms; }),
       "ms"},
      {"telemetry.ingest_ms", each([](const Round& r) { return r.layers.ingest_ms; }), "ms"},
      {"telemetry.seal_ms", each([](const Round& r) { return r.layers.seal_ms; }), "ms"},
      {"telemetry.records", count([](const Round& r) { return r.records; }), "count"},
      {"telemetry.resident_mb", each([](const Round& r) { return r.resident_mb; }), "MB"},
      {"telemetry.spilled_mb", each([](const Round& r) { return r.spilled_mb; }), "MB"},
      {"telemetry.coarse_mb", each([](const Round& r) { return r.coarse_mb; }), "MB"},
      {"telemetry.spill_files", count([](const Round& r) { return r.spill_files; }), "count"},
      {"telemetry.view_capture_ms",
       pool([](const Round& r) -> auto& { return r.layers.view_capture_ms; }), "ms"},
      {"telemetry.view_scan_ms",
       pool([](const Round& r) -> auto& { return r.layers.view_scan_ms; }), "ms"},
      {"telemetry.query_records", count([](const Round& r) { return r.layers.query_records; }),
       "count"},
      {"telemetry.spill_maps", count([](const Round& r) { return r.spill_maps; }), "count"},
      {"telemetry.fine_range_ms",
       pool([](const Round& r) -> auto& { return r.layers.fine_range_ms; }), "ms"},
      {"telemetry.forecast_ms", pool([](const Round& r) -> auto& { return r.layers.forecast_ms; }),
       "ms"},
      {"te.demand_ms", pool([](const Round& r) -> auto& { return r.layers.demand_ms; }), "ms"},
      {"te.fed_global_ms", pool([](const Round& r) -> auto& { return r.layers.fed_global_ms; }),
       "ms"},
      {"te.fed_total_ms", pool([](const Round& r) -> auto& { return r.layers.fed_total_ms; }),
       "ms"},
      {"te.fed_global_sp_calls", count([](const Round& r) { return r.layers.fed_global_sp; }),
       "count"},
      {"te.fed_refine_sp_calls", count([](const Round& r) { return r.layers.fed_refine_sp; }),
       "count"},
      {"te.sweep_pairs", count([](const Round& r) { return r.layers.sweep_pairs; }), "count"},
      {"te.sweep_ch_queries", count([](const Round& r) { return r.layers.sweep_queries; }),
       "count"},
      {"te.sweep_ch_pristine_hits", count([](const Round& r) { return r.layers.sweep_pristine; }),
       "count"},
      {"te.sweep_ch_certified", count([](const Round& r) { return r.layers.sweep_certified; }),
       "count"},
      {"te.sweep_ch_fallbacks", count([](const Round& r) { return r.layers.sweep_fallbacks; }),
       "count"},
      {"graph.ch_build_ms", pool([](const Round& r) -> auto& { return r.layers.ch_build_ms; }),
       "ms"},
      {"capacity.plan_ms", pool([](const Round& r) -> auto& { return r.layers.capacity_plan_ms; }),
       "ms"},
      {"capacity.upgrades", count([](const Round& r) { return r.layers.upgrades; }), "count"},
      {"lp.mcf_warm_ms", pool([](const Round& r) -> auto& { return r.layers.mcf_warm_ms; }), "ms"},
      {"lp.mcf_cold_ms", pool([](const Round& r) -> auto& { return r.layers.mcf_cold_ms; }), "ms"},
      {"lp.sp_calls_warm", count([](const Round& r) { return r.layers.sp_warm; }), "count"},
      {"lp.sp_calls_cold", count([](const Round& r) { return r.layers.sp_cold; }), "count"},
      {"lp.warm_hits", count([](const Round& r) { return r.layers.warm_hits; }), "count"},
      {"lp.warm_misses", count([](const Round& r) { return r.layers.warm_misses; }), "count"},
      {"lp.warm_lambda_ratio",
       pool([](const Round& r) -> auto& { return r.layers.warm_lambda_ratio; }), "ratio"},
      {"lp.warm_probes_below_floor", count([](const Round& r) {
         const std::vector<double>& v = r.layers.warm_lambda_ratio;
         return std::count_if(v.begin(), v.end(), [](double x) { return x < kWarmMinRatio; });
       }), "count"},
      {"smn.tick_ms", pool([](const Round& r) -> auto& { return r.quiet_tick_ms; }), "ms"},
      {"smn.resolves", count([](const Round& r) { return r.resolves; }), "count"},
      {"smn.query_deadline_exceeded",
       count([](const Round& r) { return r.ops.read_deadline_exceeded; }), "count"},
      {"smn.enrich_ms", pool([](const Round& r) -> auto& { return r.layers.enrich_ms; }), "ms"},
      {"smn.enricher_archive", count([](const Round& r) { return r.enricher_archive; }), "count"},
      {"smn.lake_records", count([](const Round& r) { return r.lake_records; }), "count"},
      {"incident.features_ms", pool([](const Round& r) -> auto& { return r.layers.features_ms; }),
       "ms"},
      {"coverage.read", ratio(probe_ms[0], call_ms[0]), "ratio"},
      {"coverage.incident", ratio(probe_ms[1], call_ms[1]), "ratio"},
      {"coverage.plan", ratio(probe_ms[2], call_ms[2]), "ratio"},
      {"coverage.resolve", ratio(probe_ms[3], call_ms[3]), "ratio"},
      {"coverage.fed", ratio(probe_ms[4], call_ms[4]), "ratio"},
      {"coverage.sweep", ratio(probe_ms[5], call_ms[5]), "ratio"},
      {"trace.calls_ms", traced_calls, "ms"},
      {"trace.overhead_ms", overhead_ms, "ms"},
  };
}

void print_ops(const Ops& ops) {
  for (const OpClass& c : kOpClasses) {
    std::printf("ops %-9s attempted=%llu failed=%llu\n", c.name,
                static_cast<unsigned long long>((ops.*c.count).attempted),
                static_cast<unsigned long long>((ops.*c.count).failed));
  }
  std::printf("ops read      shed=%llu deadline_exceeded=%llu (not failures)\n",
              static_cast<unsigned long long>(ops.read_shed),
              static_cast<unsigned long long>(ops.read_deadline_exceeded));
}

/// Per span name: count and total wall, plus the rounds' self time: round
/// wall covered by no call, probe or check (spans never overlap).
void print_span_summary(const std::vector<Span>& spans) {
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  double self_us = 0.0;
  for (const Span& s : spans) {
    auto& [n, total] = by_name[s.name];
    ++n;
    total += s.end_us - s.start_us;
    self_us += (s.parent == 0 ? 1.0 : -1.0) * (s.end_us - s.start_us);
  }
  for (const auto& [name, entry] : by_name) {
    std::printf("span %-24s count=%zu total_ms=%.3f\n", name.c_str(), entry.first,
                entry.second / 1000.0);
  }
  std::printf("span replay_round self_ms=%.3f\n", self_us / 1000.0);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out, "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f}\n",
                 s.id, s.parent, s.name.c_str(), s.start_us, s.end_us);
  }
  return std::fclose(out) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <telemetry_replay|large_wan> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_build/perfbench-out";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--out") out_dir = value;
    else return usage();
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return usage();
  }
  // Contract violations are counted, not fatal, so the run can report them
  // as a failed check.
  smn::util::set_contract_mode(smn::util::ContractMode::kLog);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string spill_dir = out_dir + "/spill-" + std::to_string(getpid());

  const Inputs inputs = generate_inputs(*spec, seed);
  // What the inputs keep resident; peak_rss_mb is the peak above it.
  malloc_trim(0);
  const double inputs_mb = rss_mb();
  std::printf("workload %s seed %llu: %llu records over %zu h, %zu incidents, %zu cycles; "
              "inputs resident %.1f MB (peak so far %.1f MB)\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(inputs.total.count), inputs.hours,
              inputs.incidents.size(), inputs.cycle_commodities.size(), inputs_mb, peak_rss_mb());

  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    SetupTimes times;
    setup(*spec, spill_dir, &times).reset();
    setups.push_back(times.total_s);
  }

  // Traced runs: round 0 warms up, then traced and untraced rounds take
  // turns (odd traced, even untraced) and the run ends on an untraced one.
  auto is_traced_round = [&](std::size_t i) { return trace == 1 && i % 2 == 1; };
  auto more_rounds = [&](std::size_t done, double measured) {
    if (measured < seconds) return true;
    return trace == 1 && (done < 3 || done % 2 == 0);
  };
  const Clock::time_point epoch = Clock::now();
  std::vector<Span> spans;
  std::vector<Round> rounds;
  std::vector<bool> is_traced;
  std::unique_ptr<System> last;
  double measured_s = 0.0;
  while (more_rounds(rounds.size(), measured_s)) {
    last.reset();
    RoundOptions options;
    options.traced = is_traced_round(rounds.size());
    options.spans = &spans;
    options.epoch = epoch;
    const auto a = Clock::now();
    rounds.push_back(replay_round(*spec, inputs, spill_dir, options, &last));
    measured_s += ms_between(a, Clock::now()) / 1000.0;
    setups.push_back(rounds.back().setup.total_s);
    is_traced.push_back(options.traced);
  }
  // Read before the end-of-run checks, which hold copies of their own.
  const double peak_mb = peak_rss_mb() - inputs_mb;
  end_of_run_checks(*spec, inputs, *last, rounds.back());
  last.reset();

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::printf("round %zu%s: setup %.3f s, replay %.3f s, ingest %.1f ms + retention %.1f ms, "
                "median read %.3f ms, incident %.3f ms, plan %.1f ms, resolve %.1f ms, "
                "fed %.1f ms, sweep %.1f ms, calls %.1f ms\n",
                i, is_traced[i] ? " (traced)" : "", r.setup.total_s, r.replay_s,
                1000.0 * r.ingest_s, 1000.0 * r.retention_s,
                median(r.read_ms), median(r.incident_ms), 1000.0 * median(r.plan_s),
                1000.0 * median(r.resolve_s), 1000.0 * median(r.fed_s),
                1000.0 * median(r.sweep_s), r.calls_ms);
  }

  Ops ops;
  std::vector<std::string> failures;
  std::vector<const Round*> untraced, traced;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    add_ops(ops, rounds[i].ops);
    failures.insert(failures.end(), rounds[i].check_failures.begin(),
                    rounds[i].check_failures.end());
    (is_traced[i] ? traced : untraced).push_back(&rounds[i]);
  }
  ++ops.check.attempted;
  if (smn::util::contract_failure_count() != 0) {
    ++ops.check.failed;
    failures.push_back(std::to_string(smn::util::contract_failure_count()) +
                       " contract violations");
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  for (std::size_t g = 0; g < inputs.gates.size(); ++g) {
    const double ratio = rounds.front().gate_ratios[g];
    std::printf("warm-start gate at %lld s: warm / cold lambda %.4f (cold %.6g, epsilon %.2f)%s\n",
                static_cast<long long>(inputs.gates[g].at), ratio, inputs.gates[g].cold_lambda,
                inputs.gate_epsilon, ratio >= kWarmMinRatio ? "" : ", below 0.95: failed");
  }
  std::printf("rounds %zu (%zu traced), %.1f s measured, %llu re-solves and %llu/%zu incidents "
              "routed to the root team per round, peak resident %.1f MB above the inputs\n",
              rounds.size(), traced.size(), measured_s,
              static_cast<unsigned long long>(rounds.front().resolves),
              static_cast<unsigned long long>(rounds.front().incidents_routed_right),
              rounds.front().incident_ms.size(), peak_mb);
  print_ops(ops);

  std::vector<Metric> metrics;
  if (trace == 1) {
    print_span_summary(spans);
    const std::string path = out_dir + "/trace-" + spec->name + "-" + std::to_string(seed) +
                             ".jsonl";
    if (write_spans(path, spans)) std::printf("spans written to %s\n", path.c_str());
    metrics = per_layer(traced, trace_overhead_ms(rounds, is_traced));
  } else {
    metrics = end_to_end(untraced, setups, peak_mb);
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const OpClass& c : kOpClasses) {
    if (!c.call) continue;
    attempted += (ops.*c.count).attempted;
    failed += (ops.*c.count).failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ops.check.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
