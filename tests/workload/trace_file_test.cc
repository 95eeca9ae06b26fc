/** @file Tests for trace recording and replay. */

#include "workload/trace_file.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "simcore/logging.hh"
#include "workload/trace_generator.hh"

namespace refsched::workload
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path()
                 / ("refsched_trace_test_"
                    + std::to_string(::getpid()) + ".bin"))
                    .string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

BenchmarkProfile
profile()
{
    BenchmarkProfile p;
    p.name = "t";
    p.footprintBytes = 8 * kMiB;
    p.memOpFraction = 0.4;
    p.writeFraction = 0.3;
    p.seqFraction = 0.2;
    p.randomFraction = 0.1;
    p.dependentFraction = 0.5;
    p.hotsetBytes = 64 * kKiB;
    p.baseCpi = 0.8;
    return p;
}

TEST_F(TraceFileTest, RoundTripPreservesEveryField)
{
    SyntheticTraceGenerator gen(profile(), 5, 8 * kMiB);
    const auto recorded = recordTrace(gen, 4000);
    writeTraceFile(path_, recorded, 0.8);

    const auto loaded = readTraceFile(path_);
    EXPECT_DOUBLE_EQ(loaded.baseCpi, 0.8);
    ASSERT_EQ(loaded.entries.size(), recorded.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        ASSERT_EQ(loaded.entries[i].gap, recorded[i].gap) << i;
        ASSERT_EQ(loaded.entries[i].vaddr, recorded[i].vaddr) << i;
        ASSERT_EQ(loaded.entries[i].isWrite, recorded[i].isWrite) << i;
        ASSERT_EQ(loaded.entries[i].sequential,
                  recorded[i].sequential)
            << i;
        ASSERT_EQ(loaded.entries[i].dependent, recorded[i].dependent)
            << i;
    }
}

TEST_F(TraceFileTest, ReplayLoopsForever)
{
    std::vector<cpu::TraceEntry> entries(3);
    entries[0].vaddr = 100;
    entries[1].vaddr = 200;
    entries[2].vaddr = 300;
    ReplaySource src(entries);
    EXPECT_EQ(src.size(), 3u);
    for (int loop = 0; loop < 4; ++loop) {
        EXPECT_EQ(src.next().vaddr, 100u);
        EXPECT_EQ(src.next().vaddr, 200u);
        EXPECT_EQ(src.next().vaddr, 300u);
    }
    EXPECT_EQ(src.loops(), 4u);
}

TEST_F(TraceFileTest, ReplayFromFileMatchesRecording)
{
    SyntheticTraceGenerator gen(profile(), 11, 8 * kMiB);
    const auto recorded = recordTrace(gen, 500);
    writeTraceFile(path_, recorded, 0.8);

    ReplaySource src(path_);
    EXPECT_DOUBLE_EQ(src.baseCpi(), 0.8);
    for (const auto &want : recorded) {
        const auto got = src.next();
        ASSERT_EQ(got.vaddr, want.vaddr);
        ASSERT_EQ(got.gap, want.gap);
    }
}

TEST_F(TraceFileTest, EmptyTraceIsFatal)
{
    EXPECT_THROW(ReplaySource(std::vector<cpu::TraceEntry>{}),
                 FatalError);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(readTraceFile("/no/such/dir/trace.bin"), FatalError);
}

TEST_F(TraceFileTest, CorruptMagicIsFatal)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "definitely not a trace";
    std::fwrite(junk, sizeof(junk), 1, f);
    std::fclose(f);
    EXPECT_THROW(readTraceFile(path_), FatalError);
}

TEST_F(TraceFileTest, TruncatedFileIsFatal)
{
    SyntheticTraceGenerator gen(profile(), 3, 8 * kMiB);
    writeTraceFile(path_, recordTrace(gen, 100), 0.5);
    // Chop the file short.
    std::filesystem::resize_file(path_, 16 + 50 * 16 + 7);
    EXPECT_THROW(readTraceFile(path_), FatalError);
}

/** Rewrite the header of the trace at @p path in place. */
void
patchHeader(const std::string &path, std::uint64_t count, double baseCpi)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // Header layout: magic[4], version (u32), count (u64), baseCpi.
    std::fseek(f, 8, SEEK_SET);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&baseCpi, sizeof(baseCpi), 1, f);
    std::fclose(f);
}

TEST_F(TraceFileTest, ForgedEntryCountIsFatal)
{
    SyntheticTraceGenerator gen(profile(), 3, 8 * kMiB);
    writeTraceFile(path_, recordTrace(gen, 100), 0.5);
    for (std::uint64_t count : {101ULL, 1ULL << 62, ~0ULL}) {
        patchHeader(path_, count, 0.5);
        EXPECT_THROW(readTraceFile(path_), FatalError) << count;
    }
    patchHeader(path_, 100, 0.5);
    EXPECT_EQ(readTraceFile(path_).entries.size(), 100u);
}

TEST_F(TraceFileTest, NonPositiveOrNonFiniteBaseCpiIsFatal)
{
    SyntheticTraceGenerator gen(profile(), 3, 8 * kMiB);
    writeTraceFile(path_, recordTrace(gen, 10), 0.5);
    for (double cpi : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0}) {
        patchHeader(path_, 10, cpi);
        EXPECT_THROW(readTraceFile(path_), FatalError) << cpi;
        EXPECT_THROW(ReplaySource{path_}, FatalError) << cpi;
    }
}

} // namespace
} // namespace refsched::workload
