#include "workload/trace_file.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "simcore/logging.hh"

namespace refsched::workload
{

namespace
{

constexpr char kMagic[4] = {'R', 'S', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

struct FileHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
    double baseCpi;
};

struct FileEntry
{
    std::uint32_t gap;
    std::uint8_t flags;
    std::uint8_t pad[3];
    std::uint64_t vaddr;
};
static_assert(sizeof(FileEntry) == 16, "packed trace entry layout");

constexpr std::uint8_t kFlagWrite = 1u << 0;
constexpr std::uint8_t kFlagSequential = 1u << 1;
constexpr std::uint8_t kFlagDependent = 1u << 2;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

std::vector<cpu::TraceEntry>
recordTrace(cpu::InstructionSource &source, std::uint64_t entries)
{
    std::vector<cpu::TraceEntry> out;
    out.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i)
        out.push_back(source.next());
    return out;
}

void
writeTraceFile(const std::string &path,
               const std::vector<cpu::TraceEntry> &entries,
               double baseCpi)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("cannot open trace file for writing: ", path);

    FileHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.count = entries.size();
    header.baseCpi = baseCpi;
    if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1)
        fatal("short write on trace header: ", path);

    for (const auto &e : entries) {
        FileEntry fe{};
        fe.gap = e.gap;
        fe.flags = (e.isWrite ? kFlagWrite : 0)
            | (e.sequential ? kFlagSequential : 0)
            | (e.dependent ? kFlagDependent : 0);
        fe.vaddr = e.vaddr;
        if (std::fwrite(&fe, sizeof(fe), 1, f.get()) != 1)
            fatal("short write on trace entry: ", path);
    }
}

LoadedTrace
readTraceFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("cannot open trace file: ", path);

    FileHeader header{};
    if (std::fread(&header, sizeof(header), 1, f.get()) != 1)
        fatal("trace file too short: ", path);
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        fatal("not a refsched trace file: ", path);
    if (header.version != kVersion)
        fatal("unsupported trace version ", header.version, ": ",
              path);

    if (!std::isfinite(header.baseCpi) || header.baseCpi <= 0.0)
        fatal("trace file has invalid base CPI ", header.baseCpi, ": ",
              path);
    // Trust the entry count only as far as the file backs it: a
    // forged count must not reach reserve().
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec)
        fatal("cannot size trace file: ", path);
    const std::uintmax_t stored =
        (bytes - sizeof(FileHeader)) / sizeof(FileEntry);
    if (header.count > stored)
        fatal("trace header claims ", header.count,
              " entries but the file holds ", stored, ": ", path);

    LoadedTrace out;
    out.baseCpi = header.baseCpi;
    out.entries.reserve(header.count);
    for (std::uint64_t i = 0; i < header.count; ++i) {
        FileEntry fe{};
        if (std::fread(&fe, sizeof(fe), 1, f.get()) != 1)
            fatal("truncated trace file at entry ", i, ": ", path);
        cpu::TraceEntry e;
        e.gap = fe.gap;
        e.isWrite = fe.flags & kFlagWrite;
        e.sequential = fe.flags & kFlagSequential;
        e.dependent = fe.flags & kFlagDependent;
        e.vaddr = fe.vaddr;
        out.entries.push_back(e);
    }
    return out;
}

ReplaySource::ReplaySource(std::vector<cpu::TraceEntry> entries,
                           double baseCpi)
    : entries_(std::move(entries)), baseCpi_(baseCpi)
{
    if (entries_.empty())
        fatal("cannot replay an empty trace");
}

ReplaySource::ReplaySource(const std::string &path) : baseCpi_(0.5)
{
    auto loaded = readTraceFile(path);
    entries_ = std::move(loaded.entries);
    baseCpi_ = loaded.baseCpi;
    if (entries_.empty())
        fatal("cannot replay an empty trace: ", path);
}

cpu::TraceEntry
ReplaySource::next()
{
    const auto e = entries_[pos_];
    if (++pos_ == entries_.size()) {
        pos_ = 0;
        ++loops_;
    }
    return e;
}

} // namespace refsched::workload
