/**
 * @file
 * The bench cell runner: memoization across run() batches, request
 * order and thread-count independence of results, the figure cell
 * catalogue, and CREV_BENCH_THREADS validation. Cells here are cheap
 * bespoke lambdas, so no simulation runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_runner.h"

using namespace crev;
using benchutil::CellRunner;

namespace {

/** A cell whose result is a pure function of @p i, with uneven work
 *  so that pooled workers finish out of order. */
core::RunMetrics
fakeCell(std::size_t i)
{
    std::uint64_t h = i + 1;
    for (std::size_t k = 0; k < (20 - i) * 20000; ++k)
        h = h * 6364136223846793005ull + 1442695040888963407ull;
    core::RunMetrics m;
    m.wall_cycles = h;
    m.cpu_cycles = i;
    return m;
}

std::vector<std::pair<std::string, Cycles>>
runFakes(unsigned threads)
{
    CellRunner runner;
    for (std::size_t i = 0; i < 20; ++i)
        runner.add("fake/" + std::to_string(i),
                   [i] { return fakeCell(i); });
    runner.run(threads);
    std::vector<std::pair<std::string, Cycles>> out;
    for (const auto &r : runner.results())
        out.push_back({r.name, r.metrics.wall_cycles});
    return out;
}

} // namespace

TEST(BenchRunner, RequestedTwiceRunsOnce)
{
    std::atomic<int> calls{0};
    const auto fn = [&] {
        ++calls;
        core::RunMetrics m;
        m.wall_cycles = 42;
        return m;
    };
    // A catalogue key whose name is already taken hits the memo, so
    // no simulation runs here.
    const auto key = benchutil::pgbenchCell(core::Strategy::kBaseline);
    CellRunner runner;
    runner.add(key.name(), fn);
    runner.run(1);
    runner.request(key);
    runner.add(key.name(), fn);
    runner.add("other", fn);
    runner.run(4);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(runner.at(key).metrics.wall_cycles, 42u);
    ASSERT_EQ(runner.results().size(), 2u);
    EXPECT_EQ(runner.results()[0].name, "pgbench/baseline");
    EXPECT_EQ(runner.results()[1].name, "other");
}

TEST(BenchRunner, RequestOrderAndEqualAcrossThreadCounts)
{
    const auto serial = runFakes(1);
    const auto pooled = runFakes(4);
    ASSERT_EQ(serial.size(), 20u);
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].first, "fake/" + std::to_string(i));
    EXPECT_EQ(serial, pooled);
}

TEST(BenchRunner, RecordsHostSeconds)
{
    CellRunner runner;
    runner.add("a", [] { return fakeCell(0); });
    runner.run(1);
    EXPECT_GT(runner.at("a").host_seconds, 0.0);
}

TEST(BenchRunnerDeathTest, UnknownCellIsFatal)
{
    CellRunner runner;
    runner.add("pending", [] { return core::RunMetrics{}; });
    EXPECT_EXIT(runner.at("missing"), ::testing::ExitedWithCode(1),
                "missing was not run");
    EXPECT_EXIT(runner.at("pending"), ::testing::ExitedWithCode(1),
                "pending was not run");
}

TEST(BenchRunner, FigureCellCatalogue)
{
    std::vector<std::string> full, quick;
    for (const auto &k : benchutil::figureCells(false))
        full.push_back(k.name());
    for (const auto &k : benchutil::figureCells(true))
        quick.push_back(k.name());
    const std::set<std::string> full_set(full.begin(), full.end());
    EXPECT_EQ(full.size(), 54u);
    EXPECT_EQ(full_set.size(), 54u);
    EXPECT_EQ(quick.size(), 8u);
    EXPECT_EQ(std::set<std::string>(quick.begin(), quick.end()).size(),
              8u);
    for (const auto &n : quick)
        EXPECT_EQ(full_set.count(n), 1u) << n;

    // The trajectory's cell names and order.
    EXPECT_EQ(full.front(), "spec/xalancbmk/baseline");
    EXPECT_EQ(full[1], "spec/xalancbmk/paint+sync");
    EXPECT_EQ(full[45], "pgbench/baseline");
    EXPECT_EQ(full[50], "grpc/baseline");
    EXPECT_EQ(full.back(), "grpc/reloaded");
    EXPECT_EQ(quick.front(), "spec/hmmer_retro/baseline");
    EXPECT_EQ(quick.back(), "pgbench/reloaded");
}

TEST(BenchRunnerDeathTest, BenchThreadsRejectsMalformedValues)
{
    for (const char *bad : {"abc", "4x", "0", "-1", "1025", "", " 4",
                            "99999999999999999999"}) {
        EXPECT_EXIT(
            {
                setenv("CREV_BENCH_THREADS", bad, 1);
                benchutil::benchThreads();
            },
            ::testing::ExitedWithCode(2), "CREV_BENCH_THREADS")
            << "value '" << bad << "'";
    }
}

TEST(BenchRunner, BenchThreadsReadsPlainCount)
{
    setenv("CREV_BENCH_THREADS", "3", 1);
    EXPECT_EQ(benchutil::benchThreads(), 3u);
    setenv("CREV_BENCH_THREADS", "1024", 1);
    EXPECT_EQ(benchutil::benchThreads(), 1024u);
    unsetenv("CREV_BENCH_THREADS");
    EXPECT_GE(benchutil::benchThreads(), 1u);
}
