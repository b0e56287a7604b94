// Compiled-vs-mutable kernel comparison on the chart3-style workload
// (synthetic 10x5 schema, paper subscription mix, factoring_levels=2): the
// same PstMatcher matched through the mutable Pst walk (the event's bucket
// tree, walked directly) and through the compiled flat kernel (CompiledPst,
// via match_into past the compile hysteresis), plus the one-time compile
// cost of freezing every bucket. The ISSUE acceptance bar is compiled >= 2x
// mutable at 10k subscriptions.
//
// Writes BENCH_compiled_pst.json to the working directory.
//
// Usage: compiled_pst_bench [subscriptions] [probe_events] [repeat_passes]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "matching/compiled_pst.h"
#include "matching/pst_matcher.h"

namespace gryphon {
namespace {

struct KernelResult {
  double ns_per_event;
  double steps_per_event;
  std::uint64_t checksum;  // total matches — must agree between kernels
};

KernelResult run_kernel(const SchemaPtr& schema, const std::vector<Subscription>& subs,
                        const std::vector<Event>& events, std::size_t passes,
                        bool compiled) {
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(schema, options);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, subs[i]);
  }
  MatchScratch scratch;
  std::vector<SubscriptionId> out;
  // Warm-up: pulls every bucket past the compile hysteresis (and warms the
  // caches identically for the mutable run).
  for (unsigned pass = 0; pass <= PstMatcher::kCompileThreshold; ++pass) {
    for (const Event& e : events) {
      out.clear();
      matcher.match_into(e, out, scratch);
    }
  }
  MatchStats stats;
  std::uint64_t checksum = 0;
  bench::Stopwatch watch;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const Event& e : events) {
      out.clear();
      if (compiled) {
        matcher.match_into(e, out, scratch, &stats);
      } else {
        ++stats.nodes_visited;  // the bucket index probe, as match_into counts it
        const Pst* tree = matcher.tree_for_event(e, scratch.factoring_key());
        if (tree != nullptr) tree->match(e, out, &stats);
      }
      checksum += out.size();
    }
  }
  const double seconds = watch.seconds();
  const double n = static_cast<double>(events.size() * passes);
  return KernelResult{seconds * 1e9 / n,
                      static_cast<double>(stats.nodes_visited + stats.tests_evaluated) / n,
                      checksum};
}

}  // namespace
}  // namespace gryphon

int main(int argc, char** argv) {
  using namespace gryphon;
  const std::size_t n_subs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 10000;
  const std::size_t n_events =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 2000;
  const std::size_t passes = argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 20;

  const auto schema = make_synthetic_schema(10, 5);
  Rng rng(1);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  std::vector<Subscription> subs;
  subs.reserve(n_subs);
  for (std::size_t i = 0; i < n_subs; ++i) subs.push_back(gen.generate(rng));
  EventGenerator ev_gen(schema);
  std::vector<Event> events;
  events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i) events.push_back(ev_gen.generate(rng));

  // One-time compile cost: freeze + flatten every bucket of a fresh matcher.
  PstMatcherOptions compile_options;
  compile_options.factoring_levels = 2;
  PstMatcher compile_probe(schema, compile_options);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    compile_probe.add(SubscriptionId{static_cast<std::int64_t>(i)}, subs[i]);
  }
  std::size_t compiled_bytes = 0;
  bench::Stopwatch compile_watch;
  std::size_t tree_count = 0;
  compile_probe.for_each_bucket([&](const FactoringIndex::Key*, const Pst& tree) {
    const CompiledPst kernel{FrozenPsg(tree)};
    compiled_bytes += kernel.memory_bytes();
    ++tree_count;
  });
  const double compile_ms = compile_watch.seconds() * 1e3;

  bench::print_header("Compiled vs mutable PST kernel (chart3-style workload)");
  std::printf("subscriptions=%zu  probe_events=%zu  passes=%zu  buckets=%zu\n", n_subs,
              n_events, passes, tree_count);
  const KernelResult mut = run_kernel(schema, subs, events, passes, false);
  const KernelResult comp = run_kernel(schema, subs, events, passes, true);
  if (mut.checksum != comp.checksum) {
    std::fprintf(stderr, "compiled_pst_bench: kernels disagree (%llu vs %llu matches)\n",
                 static_cast<unsigned long long>(mut.checksum),
                 static_cast<unsigned long long>(comp.checksum));
    return 1;
  }
  const double speedup = mut.ns_per_event / comp.ns_per_event;
  std::printf("%10s %14s %16s\n", "kernel", "ns/event", "steps/event");
  std::printf("%10s %14.1f %16.1f\n", "mutable", mut.ns_per_event, mut.steps_per_event);
  std::printf("%10s %14.1f %16.1f\n", "compiled", comp.ns_per_event, comp.steps_per_event);
  std::printf("speedup: %.2fx   compile cost: %.2f ms (%zu buckets, %.1f KiB flat)\n",
              speedup, compile_ms, tree_count, static_cast<double>(compiled_bytes) / 1024.0);

  std::FILE* out = std::fopen("BENCH_compiled_pst.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "compiled_pst_bench: cannot write BENCH_compiled_pst.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"compiled_pst\",\n"
               "  \"workload\": \"chart3-style (synthetic 10x5, 0.98/0.85 mix, "
               "factoring_levels 2)\",\n"
               "  \"subscriptions\": %zu,\n"
               "  \"probe_events\": %zu,\n"
               "  \"passes\": %zu,\n"
               "  \"buckets\": %zu,\n"
               "  \"compile_ms_all_buckets\": %.3f,\n"
               "  \"compiled_kernel_bytes\": %zu,\n"
               "  \"mutable_ns_per_event\": %.1f,\n"
               "  \"compiled_ns_per_event\": %.1f,\n"
               "  \"mutable_steps_per_event\": %.1f,\n"
               "  \"compiled_steps_per_event\": %.1f,\n"
               "  \"matches_checksum\": %llu,\n"
               "  \"speedup\": %.3f\n}\n",
               n_subs, n_events, passes, tree_count, compile_ms, compiled_bytes,
               mut.ns_per_event, comp.ns_per_event, mut.steps_per_event,
               comp.steps_per_event, static_cast<unsigned long long>(comp.checksum), speedup);
  std::fclose(out);
  std::printf("wrote BENCH_compiled_pst.json\n");
  return 0;
}
