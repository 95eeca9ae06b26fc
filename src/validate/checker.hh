/**
 * @file
 * Invariant-checker base classes and the fan-out hub that a System
 * wires into its components' probe pointers.
 *
 * A Checker is a Probe that records Violations instead of asserting,
 * so a full run can be audited and every breakage reported with its
 * simulated tick; the CheckerSet owns the checkers, forwards every
 * event to each of them, and additionally mirrors the stream to
 * non-owned external probes (e.g. a golden-trace recorder).
 */

#ifndef REFSCHED_VALIDATE_CHECKER_HH
#define REFSCHED_VALIDATE_CHECKER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/probe.hh"
#include "simcore/types.hh"

namespace refsched::validate
{

/** One detected invariant violation. */
struct Violation
{
    /** Name of the checker that flagged it. */
    std::string checker;
    /** Simulated tick of the offending event. */
    Tick tick = 0;
    std::string message;
};

/**
 * A probe that audits the event stream and accumulates violations.
 * Only the first kMaxStored violations keep their full message (a
 * broken invariant tends to fire on every subsequent event); the
 * total count is always exact.
 */
class Checker : public Probe
{
  public:
    explicit Checker(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    std::uint64_t violationCount() const { return count_; }
    const std::vector<Violation> &violations() const { return stored_; }

  protected:
    static constexpr std::size_t kMaxStored = 64;

    template <typename... Args>
    void
    flag(Tick tick, Args &&...args)
    {
        ++count_;
        if (stored_.size() < kMaxStored)
            stored_.push_back(
                {name_, tick,
                 detail::format(std::forward<Args>(args)...)});
    }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    std::vector<Violation> stored_;
};

/**
 * Owns a set of checkers and fans every probe callback out to all of
 * them, plus any attached external (non-owned) probes.  External
 * probes receive events after the checkers.
 */
class CheckerSet final : public Probe
{
  public:
    /** Takes ownership; returns the added checker for test access. */
    Checker &
    add(std::unique_ptr<Checker> checker)
    {
        checkers_.push_back(std::move(checker));
        return *checkers_.back();
    }

    /** Attach a non-owned probe (e.g. TraceRecorder); must outlive
     *  the CheckerSet's event stream. */
    void attachExternal(Probe *probe) { external_.push_back(probe); }

    const std::vector<std::unique_ptr<Checker>> &
    checkers() const
    {
        return checkers_;
    }

    std::uint64_t
    violationCount() const
    {
        std::uint64_t n = 0;
        for (const auto &c : checkers_)
            n += c->violationCount();
        return n;
    }

    /** Earliest-tick stored violation, or null when clean. */
    const Violation *
    firstViolation() const
    {
        const Violation *first = nullptr;
        for (const auto &c : checkers_)
            for (const auto &v : c->violations())
                if (!first || v.tick < first->tick)
                    first = &v;
        return first;
    }

    void
    onDramCommand(const DramCmdEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onDramCommand(ev); });
    }

    void
    onSchedPick(const SchedPickEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onSchedPick(ev); });
    }

    void
    onRqEnqueue(const RqEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onRqEnqueue(ev); });
    }

    void
    onRqDequeue(const RqEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onRqDequeue(ev); });
    }

    void
    onPageAlloc(const PageAllocEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onPageAlloc(ev); });
    }

    void
    onPageFree(const PageFreeEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onPageFree(ev); });
    }

    void
    onTaskSpawn(const TaskLifeEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onTaskSpawn(ev); });
    }

    void
    onTaskExit(const TaskLifeEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onTaskExit(ev); });
    }

    void
    onPageMigrate(const PageMigrateEvent &ev) override
    {
        dispatch([&](Probe &p) { p.onPageMigrate(ev); });
    }

    void
    finalize(Tick endTick) override
    {
        dispatch([&](Probe &p) { p.finalize(endTick); });
    }

  private:
    template <typename Fn>
    void
    dispatch(Fn &&fn)
    {
        for (auto &c : checkers_)
            fn(*c);
        for (auto *p : external_)
            fn(*p);
    }

    std::vector<std::unique_ptr<Checker>> checkers_;
    std::vector<Probe *> external_;
};

} // namespace refsched::validate

#endif // REFSCHED_VALIDATE_CHECKER_HH
