// Micro-benchmark: synthetic trace generation rate (VMs/second), the
// feasibility statistic and percentile kernels, and the streaming replay
// path (arrival-stub indexing and windowed record delivery).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "trace/alibaba.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"

static void bench_azure_generate_vm(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 1;
  config.seed = 3;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const AzureTraceGenerator gen(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_vm(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_azure_generate_vm);

static void bench_alibaba_generate_container(benchmark::State& state) {
  using namespace deflate::trace;
  AlibabaTraceConfig config;
  config.duration = deflate::sim::SimTime::from_hours(24);
  const AlibabaTraceGenerator gen(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_container(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_alibaba_generate_container);

// The feasibility statistic (Figs. 5-7: share of time above a usage
// threshold) over a 72-hour series of 5-minute samples (864), the span the
// feasibility traces cover.
static void bench_fraction_above(benchmark::State& state) {
  using namespace deflate::trace;
  deflate::util::Rng rng(9);
  std::vector<float> samples(864);
  for (float& s : samples) s = static_cast<float>(rng.logit_normal(-1.0, 1.0));
  const UtilizationSeries series(std::move(samples));
  for (auto _ : state) {
    benchmark::DoNotOptimize(series.fraction_above(0.5));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(bench_fraction_above);

// The p95 that sets a deflatable VM's priority at arrival (Fig. 8's
// buckets), on one day of 5-minute samples (288).
static void bench_percentile(benchmark::State& state) {
  using namespace deflate::trace;
  deflate::util::Rng rng(9);
  std::vector<float> samples(288);
  for (float& s : samples) s = static_cast<float>(rng.logit_normal(-1.0, 1.0));
  const UtilizationSeries series(std::move(samples));
  for (auto _ : state) {
    benchmark::DoNotOptimize(series.percentile(0.95));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(bench_percentile);

// Stub projection: the O(1) header-only draw the streaming index is built
// from — the reason indexing a multi-million-VM trace is cheap.
static void bench_azure_arrival_stub(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 1;
  config.seed = 3;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const AzureTraceGenerator gen(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.arrival_of(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_azure_arrival_stub);

// End-to-end streaming delivery rate: records materialized lazily through
// the prefetch window, in (start, id) order. The wrap-around reset() cost
// (index rebuild is cached; only the window restarts) is amortized over
// the stream length.
static void bench_replay_stream_next(benchmark::State& state) {
  using namespace deflate::trace;
  ReplayConfig replay;
  replay.azure.vm_count = 2000;
  replay.azure.seed = 3;
  replay.azure.duration = deflate::sim::SimTime::from_hours(24);
  replay.window = static_cast<std::size_t>(state.range(0));
  const auto stream = make_arrival_stream(replay);
  for (auto _ : state) {
    auto record = stream->next();
    if (!record) {
      stream->reset();
      record = stream->next();
    }
    benchmark::DoNotOptimize(record);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_replay_stream_next)->Arg(1)->Arg(256);
