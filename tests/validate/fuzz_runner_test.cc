/**
 * @file
 * Fuzzer corpus output: a missing corpus directory is created,
 * and one that cannot be created fails before any sample runs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "simcore/logging.hh"
#include "validate/fuzz/fuzz_runner.hh"

namespace refsched::validate::fuzz
{
namespace
{

namespace fs = std::filesystem;

/** A fresh empty directory, removed with its contents at scope exit. */
struct ScratchDir
{
    ScratchDir()
        : path(fs::temp_directory_path()
               / ("refsched-fuzz-runner-"
                  + std::to_string(::getpid())
                  + "-"
                  + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }

    fs::path path;
};

FuzzSample
sample()
{
    return FuzzSample::parse("kind=system\n"
                             "cores=2\n"
                             "tasks_per_core=2\n"
                             "benchmarks=mcf,stream,povray,mcf\n");
}

/** A path whose parent is a regular file, so it cannot be a dir. */
fs::path
underARegularFile(const ScratchDir &scratch)
{
    const fs::path file = scratch.path / "file";
    std::ofstream(file) << "not a directory\n";
    return file / "corpus";
}

TEST(FuzzRunnerTest, WriteCorpusEntryCreatesMissingDirectories)
{
    ScratchDir scratch;
    const fs::path dir = scratch.path / "a" / "b";
    const std::string path = writeCorpusEntry(dir.string(), sample(), {});
    EXPECT_EQ(fs::path(path).parent_path(), dir);
    EXPECT_TRUE(fs::is_regular_file(path));
    EXPECT_EQ(FuzzSample::parseFile(path).serialize(),
              sample().serialize());
}

TEST(FuzzRunnerTest, WriteCorpusEntryUnderARegularFileIsFatal)
{
    ScratchDir scratch;
    EXPECT_THROW(writeCorpusEntry(underARegularFile(scratch).string(),
                                  sample(), {}),
                 FatalError);
}

TEST(FuzzRunnerTest, RunFuzzChecksTheCorpusDirBeforeSampling)
{
    ScratchDir scratch;
    std::ostringstream log;
    FuzzOptions opts;
    opts.samples = 0;

    opts.corpusDir = (scratch.path / "new" / "corpus").string();
    EXPECT_EQ(runFuzz(opts, log).samplesRun, 0);
    EXPECT_TRUE(fs::is_directory(opts.corpusDir));

    opts.corpusDir = underARegularFile(scratch).string();
    try {
        runFuzz(opts, log);
        ADD_FAILURE() << "runFuzz accepted an uncreatable corpus dir";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(opts.corpusDir),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace refsched::validate::fuzz
