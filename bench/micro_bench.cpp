// Google-benchmark microbenchmarks for the hot paths: PST matching, link
// matching, subscription insertion, the trit algebra, and the wire codec.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/rng.h"
#include "event/codec.h"
#include "matching/attribute_order.h"
#include "matching/naive_matcher.h"
#include "matching/pst_matcher.h"
#include "routing/annotated_pst.h"
#include "routing/link_matcher.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

struct Fixture {
  SchemaPtr schema;
  std::vector<Subscription> subs;
  std::vector<Event> events;
  std::unordered_map<SubscriptionId, LinkIndex> links;

  explicit Fixture(std::size_t n_subs) : schema(make_synthetic_schema(10, 5)) {
    Rng rng(1);
    SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
    for (std::size_t i = 0; i < n_subs; ++i) {
      subs.push_back(gen.generate(rng));
      links[SubscriptionId{static_cast<std::int64_t>(i)}] =
          LinkIndex{static_cast<int>(rng.below(4))};
    }
    EventGenerator ev_gen(schema);
    for (int i = 0; i < 512; ++i) events.push_back(ev_gen.generate(rng));
  }
};

void BM_PstMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(fixture.schema, options);
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match_into(fixture.events[i++ % fixture.events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PstMatch)->Arg(1000)->Arg(10000)->Arg(25000);

// The compiled-vs-mutable kernel pair: identical chart3-style workload and
// matcher, matched through match_into (the compiled kernel, once warm) or
// by walking the event's mutable bucket tree directly. The perf-smoke CI
// leg (tools/ci.sh perf) runs exactly these two.
void run_kernel_match(benchmark::State& state, bool compiled) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(fixture.schema, options);
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  MatchScratch scratch;
  std::vector<SubscriptionId> out;
  // Warm-up past the compile hysteresis so every bucket the event pool
  // touches runs on its steady-state kernel before timing starts.
  for (unsigned pass = 0; pass <= PstMatcher::kCompileThreshold; ++pass) {
    for (const Event& e : fixture.events) {
      out.clear();
      matcher.match_into(e, out, scratch);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const Event& e = fixture.events[i++ % fixture.events.size()];
    if (compiled) {
      matcher.match_into(e, out, scratch);
    } else if (const Pst* tree = matcher.tree_for_event(e, scratch.factoring_key())) {
      tree->match(e, out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_PstMatchCompiled(benchmark::State& state) { run_kernel_match(state, true); }
BENCHMARK(BM_PstMatchCompiled)->Arg(1000)->Arg(10000)->Arg(25000);
void BM_PstMatchMutable(benchmark::State& state) { run_kernel_match(state, false); }
BENCHMARK(BM_PstMatchMutable)->Arg(1000)->Arg(10000)->Arg(25000);

void BM_NaiveMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  NaiveMatcher matcher;
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match_into(fixture.events[i++ % fixture.events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveMatch)->Arg(1000)->Arg(10000);

void BM_LinkMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  Pst tree(fixture.schema, identity_order(fixture.schema));
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  AnnotatedPst annotated(tree, 4, [&](SubscriptionId id) { return fixture.links.at(id); });
  const TritVector init(4, Trit::Maybe);
  std::size_t i = 0;
  for (auto _ : state) {
    auto result = link_match(annotated, fixture.events[i++ % fixture.events.size()], init);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkMatch)->Arg(1000)->Arg(10000);

void BM_Subscribe(benchmark::State& state) {
  Fixture fixture(4096);
  PstMatcher matcher(fixture.schema);
  std::int64_t id = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    matcher.add(SubscriptionId{id++}, fixture.subs[i++ % fixture.subs.size()]);
    if (matcher.subscription_count() >= 4096) {
      state.PauseTiming();
      for (std::int64_t r = id - static_cast<std::int64_t>(matcher.subscription_count());
           r < id; ++r) {
        matcher.remove(SubscriptionId{r});
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Subscribe);

void BM_IncrementalAnnotation(benchmark::State& state) {
  Fixture fixture(8192);
  Pst tree(fixture.schema, identity_order(fixture.schema));
  for (std::size_t i = 0; i < 4096; ++i) {
    tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  AnnotatedPst annotated(tree, 4, [&](SubscriptionId id) { return fixture.links.at(id); });
  const SubscriptionId id{4096};  // a slot with a known link assignment
  std::size_t next = 0;
  for (auto _ : state) {
    const Subscription& s = fixture.subs[next++ % fixture.subs.size()];
    annotated.apply(tree.add(id, s));
    annotated.apply(*tree.remove(id, s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalAnnotation);

void BM_TritVectorRefine(benchmark::State& state) {
  TritVector mask(16, Trit::Maybe);
  TritVector annotation(16, Trit::No);
  for (std::size_t i = 0; i < 16; i += 3) annotation.set(i, Trit::Yes);
  for (auto _ : state) {
    TritVector m = mask;
    m.refine_with(annotation);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TritVectorRefine);

void BM_EventCodecRoundTrip(benchmark::State& state) {
  Fixture fixture(16);
  const Event& event = fixture.events[0];
  for (auto _ : state) {
    const auto bytes = encode_event(event);
    const Event back = decode_event(fixture.schema, bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventCodecRoundTrip);

}  // namespace
}  // namespace gryphon
