#include "workload/profile.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "simcore/logging.hh"

namespace refsched::workload
{

namespace
{

/** Runs @p conv (a strto* call) over all of @p tok; FatalError
 *  unless it consumed every character without a range error. */
template <typename Conv>
auto
parseWhole(const std::string &tok, const char *what, const char *kind,
           Conv conv)
{
    // strto* skip leading space; a token must start with the number.
    if (tok.empty() || std::isspace(static_cast<unsigned char>(tok[0])))
        fatal(what, ": expected ", kind, ", got '", tok, "'");
    char *end = nullptr;
    errno = 0;
    const auto v = conv(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || errno == ERANGE)
        fatal(what, ": expected ", kind, ", got '", tok, "'");
    return v;
}

} // namespace

std::uint64_t
parseUnsignedToken(const std::string &tok, const char *what)
{
    // strtoull negates a leading '-' modulo 2^64.
    if (!tok.empty() && !std::isdigit(static_cast<unsigned char>(tok[0])))
        fatal(what, ": expected an unsigned integer, got '", tok, "'");
    return parseWhole(tok, what, "an unsigned integer",
                      [](const char *s, char **end)
                      { return std::strtoull(s, end, 10); });
}

std::int64_t
parseSignedToken(const std::string &tok, const char *what,
                 std::int64_t lo, std::int64_t hi)
{
    const std::int64_t v = parseWhole(tok, what, "an integer",
                                      [](const char *s, char **end)
                                      { return std::strtoll(s, end, 10); });
    if (v < lo || v > hi)
        fatal(what, ": ", v, " out of [", lo, ", ", hi, "]");
    return v;
}

double
parseFiniteToken(const std::string &tok, const char *what)
{
    const double v = parseWhole(tok, what, "a number",
                                [](const char *s, char **end)
                                { return std::strtod(s, end); });
    if (!std::isfinite(v))
        fatal(what, ": expected a finite number, got '", tok, "'");
    return v;
}

double
PhaseSchedule::maxFootprintScale() const
{
    double maxScale = 1.0;
    for (const auto &p : phases)
        maxScale = std::max(maxScale, p.footprintScale);
    return maxScale;
}

std::string
PhaseSchedule::serialize() const
{
    std::string out;
    for (const auto &p : phases) {
        if (!out.empty())
            out += '|';
        char scale[32];
        std::snprintf(scale, sizeof(scale), "%.6g", p.footprintScale);
        out += detail::format(p.profile, '@', p.instrs, '@', scale);
    }
    return out;
}

PhaseSchedule
PhaseSchedule::parse(const std::string &text)
{
    PhaseSchedule sched;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('|', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string item = text.substr(pos, end - pos);
        pos = end + 1;

        const std::size_t a = item.find('@');
        const std::size_t b =
            a == std::string::npos ? a : item.find('@', a + 1);
        if (a == std::string::npos || b == std::string::npos)
            fatal("bad phase spec '", item,
                  "' (want profile@instrs@scale)");
        PhaseSpec spec;
        spec.profile = item.substr(0, a);
        spec.instrs = parseUnsignedToken(item.substr(a + 1, b - a - 1),
                                         "phase instruction budget");
        spec.footprintScale = parseFiniteToken(item.substr(b + 1),
                                               "phase footprintScale");
        sched.phases.push_back(std::move(spec));
    }
    sched.check();
    return sched;
}

void
PhaseSchedule::check() const
{
    for (const auto &p : phases) {
        profileByName(p.profile);  // fatal on unknown name
        if (p.instrs == 0)
            fatal("phase '", p.profile, "': zero instruction budget");
        // Written so that NaN fails too.
        if (!(p.footprintScale > 0.0 && p.footprintScale <= 16.0))
            fatal("phase '", p.profile, "': footprintScale ",
                  p.footprintScale, " out of (0,16]");
    }
}

std::string
toString(MpkiClass c)
{
    switch (c) {
      case MpkiClass::Low:
        return "L";
      case MpkiClass::Medium:
        return "M";
      case MpkiClass::High:
        return "H";
    }
    return "?";
}

double
BenchmarkProfile::expectedMpki(std::uint64_t lineBytes) const
{
    const double accessesPerLine =
        static_cast<double>(lineBytes) / accessBytes;
    return 1000.0 * memOpFraction
        * (randomFraction + seqFraction / accessesPerLine);
}

MpkiClass
BenchmarkProfile::classify(double mpki)
{
    if (mpki > 10.0)
        return MpkiClass::High;
    if (mpki >= 1.0)
        return MpkiClass::Medium;
    return MpkiClass::Low;
}

void
BenchmarkProfile::check() const
{
    if (memOpFraction <= 0.0 || memOpFraction >= 1.0)
        fatal(name, ": memOpFraction out of (0,1)");
    if (writeFraction < 0.0 || writeFraction > 1.0)
        fatal(name, ": writeFraction out of [0,1]");
    if (seqFraction < 0.0 || randomFraction < 0.0
        || seqFraction + randomFraction > 1.0) {
        fatal(name, ": pattern mixture fractions invalid");
    }
    if (hotsetBytes > footprintBytes)
        fatal(name, ": hot set larger than footprint");
    if (accessBytes == 0 || !isPowerOfTwo(accessBytes))
        fatal(name, ": accessBytes must be a power of two");
    if (baseCpi <= 0.0)
        fatal(name, ": baseCpi must be positive");
    if ((memPhaseInstrs == 0) != (computePhaseInstrs == 0))
        fatal(name, ": phase lengths must both be set or both zero");
}

namespace
{

/**
 * Built-in profiles.  Footprints follow section 5.4.1 where the
 * paper gives them; the rest are representative of the benchmark
 * (povray/h264ref are compute-bound with small live data, NAS UA is
 * an unstructured-mesh solver).  Mixture fractions are calibrated so
 * expectedMpki() lands in the paper's Table 2 class.
 */
std::map<std::string, BenchmarkProfile>
makeBuiltins()
{
    std::map<std::string, BenchmarkProfile> m;

    {
        // SPEC mcf: pointer-chasing network simplex; "very high
        // MPKI" (section 6.2).
        BenchmarkProfile p;
        p.name = "mcf";
        p.dependentFraction = 0.85;
        p.footprintBytes = static_cast<std::uint64_t>(1.7 * 1024) * kMiB;
        p.memOpFraction = 0.35;
        p.writeFraction = 0.25;
        p.baseCpi = 1.1;  // pointer chasing exposes little ILP
        p.randomFraction = 0.08;
        p.seqFraction = 0.04;
        p.hotsetBytes = 512 * kKiB;
        p.paperClass = MpkiClass::High;
        m[p.name] = p;
    }
    {
        // SPEC bwaves: blocked blast-wave solver, large strided
        // sweeps over big arrays.
        BenchmarkProfile p;
        p.name = "bwaves";
        p.dependentFraction = 0.1;
        p.footprintBytes = 920 * kMiB;
        p.memOpFraction = 0.40;
        p.writeFraction = 0.30;
        p.baseCpi = 0.55;
        p.randomFraction = 0.015;
        p.seqFraction = 0.22;
        p.hotsetBytes = 512 * kKiB;
        p.paperClass = MpkiClass::High;
        m[p.name] = p;
    }
    {
        // STREAM: bandwidth kernel; the paper classes it M.
        BenchmarkProfile p;
        p.name = "stream";
        p.footprintBytes = 800 * kMiB;
        p.memOpFraction = 0.45;
        p.writeFraction = 0.40;
        p.baseCpi = 0.5;
        p.randomFraction = 0.0;
        p.seqFraction = 0.14;
        p.hotsetBytes = 256 * kKiB;
        p.paperClass = MpkiClass::Medium;
        m[p.name] = p;
    }
    {
        // SPEC GemsFDTD: finite-difference time domain over a 3D
        // grid.
        BenchmarkProfile p;
        p.name = "GemsFDTD";
        p.dependentFraction = 0.15;
        p.footprintBytes = 850 * kMiB;
        p.memOpFraction = 0.40;
        p.writeFraction = 0.30;
        p.baseCpi = 0.6;
        p.randomFraction = 0.004;
        p.seqFraction = 0.10;
        p.hotsetBytes = 512 * kKiB;
        p.paperClass = MpkiClass::Medium;
        m[p.name] = p;
    }
    {
        // NAS UA: unstructured adaptive mesh.
        BenchmarkProfile p;
        p.name = "npb_ua";
        p.dependentFraction = 0.4;
        p.footprintBytes = 480 * kMiB;
        p.memOpFraction = 0.35;
        p.writeFraction = 0.28;
        p.baseCpi = 0.6;
        p.randomFraction = 0.003;
        p.seqFraction = 0.08;
        p.hotsetBytes = 512 * kKiB;
        p.paperClass = MpkiClass::Medium;
        m[p.name] = p;
    }
    {
        // SPEC povray: ray tracer, cache resident.
        BenchmarkProfile p;
        p.name = "povray";
        p.footprintBytes = 64 * kMiB;
        p.memOpFraction = 0.30;
        p.writeFraction = 0.20;
        p.baseCpi = 0.45;
        p.randomFraction = 0.0002;
        p.seqFraction = 0.004;
        p.hotsetBytes = 192 * kKiB;
        p.paperClass = MpkiClass::Low;
        m[p.name] = p;
    }
    {
        // SPEC h264ref: video encoder, small working set.
        BenchmarkProfile p;
        p.name = "h264ref";
        p.footprintBytes = 96 * kMiB;
        p.memOpFraction = 0.35;
        p.writeFraction = 0.25;
        p.baseCpi = 0.5;
        p.randomFraction = 0.0003;
        p.seqFraction = 0.006;
        p.hotsetBytes = 224 * kKiB;
        p.paperClass = MpkiClass::Low;
        m[p.name] = p;
    }

    for (auto &[name, p] : m)
        p.check();
    return m;
}

const std::map<std::string, BenchmarkProfile> &
builtins()
{
    static const std::map<std::string, BenchmarkProfile> m =
        makeBuiltins();
    return m;
}

} // namespace

const BenchmarkProfile &
profileByName(const std::string &name)
{
    const auto &m = builtins();
    auto it = m.find(name);
    if (it == m.end())
        fatal("unknown benchmark profile: ", name);
    return it->second;
}

std::vector<std::string>
builtinProfileNames()
{
    std::vector<std::string> names;
    for (const auto &[name, p] : builtins())
        names.push_back(name);
    return names;
}

} // namespace refsched::workload
