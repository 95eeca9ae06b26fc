#include "cpu/core.hh"

#include <algorithm>
#include <cmath>

#include "simcore/logging.hh"

namespace refsched::cpu
{

Core::Core(EventQueue &eq, int id, const CoreParams &params,
           cache::CacheHierarchy &caches,
           memctrl::MemoryPort &mc, os::VirtualMemory &vm)
    : eq_(eq), id_(id), params_(params),
      caches_(caches), mc_(mc), vm_(vm)
{
    if (params_.issueWidth < 1 || params_.robSize < 1)
        fatal("core needs positive issue width and ROB size");
    if (params_.cpuPeriod == 0)
        fatal("cpu period must be non-zero");
    resumeCallee_.core = this;
    pageShift_ = vm_.mapping().pageShift();
    pageFaultCharge_ = static_cast<Tick>(
        std::llround(static_cast<double>(kPageFaultPenalty)
                     * static_cast<double>(params_.cpuPeriod)));
    fillSlotIdx_.assign(static_cast<std::size_t>(params_.robSize) + 1,
                        0);
    fillSlotFilled_.assign(
        static_cast<std::size_t>(params_.robSize) + 1, 0);
    const Cycles maxHit = caches_.l1(id_).params().hitLatency
        + caches_.l2().params().hitLatency;
    hitChargeTable_.resize(static_cast<std::size_t>(maxHit) + 1);
    for (std::size_t c = 0; c < hitChargeTable_.size(); ++c) {
        hitChargeTable_[c] = static_cast<Tick>(std::llround(
            static_cast<double>(c) * kHitLatencyVisibility
            * static_cast<double>(params_.cpuPeriod)));
    }
}

void
Core::ResumeCallee::fire(Tick now, std::uint64_t epoch,
                         std::uint64_t isRetry)
{
    if (epoch != core->epoch_)
        return;
    if (isRetry)
        core->waitingRetry_ = false;
    core->advance(now);
}

void
Core::setTask(os::Task *task, Tick runUntil)
{
    if (task == task_) {
        // Same task continues into the next quantum: keep the ROB,
        // trace position and any in-flight misses alive.
        runUntil_ = runUntil;
        if (task_ && !stalledOnRob_ && !waitingRetry_)
            advance(eq_.now());
        return;
    }

    ++epoch_;
    ++contextSwitches;
    if (stalledOnRob_) {
        robStallTicks += static_cast<double>(eq_.now() - stallStart_);
        stalledOnRob_ = false;
    }
    if (stalledOnMshr_) {
        mshrStallTicks += static_cast<double>(eq_.now() - stallStart_);
        stalledOnMshr_ = false;
    }
    if (stalledOnDependency_) {
        robStallTicks += static_cast<double>(eq_.now() - stallStart_);
        stalledOnDependency_ = false;
    }
    waitingRetry_ = false;
    droppedWritebacks += static_cast<double>(pendingWritebacks_.size());
    pendingWritebacks_.clear();
    outstanding_.clear();
    pendingEntry_.reset();
    pendingGap_ = 0;
    pendingMiss_.reset();
    resumeEvent_.cancel();

    task_ = task;
    runUntil_ = runUntil;
    if (task_) {
        REFSCHED_ASSERT(task_->source != nullptr,
                        "task without instruction source: pid ",
                        task_->pid());
        cpiTicks_ = std::max(task_->source->baseCpi(),
                             1.0 / params_.issueWidth)
            * static_cast<double>(params_.cpuPeriod);
        if (cpiTicks_ != chargeTableCpi_) {
            chargeTableCpi_ = cpiTicks_;
            chargeTable_.resize(
                static_cast<std::size_t>(params_.robSize) + 1);
            for (std::size_t n = 0; n < chargeTable_.size(); ++n) {
                chargeTable_[n] = static_cast<Tick>(std::llround(
                    static_cast<double>(n) * cpiTicks_));
            }
        }
        localTick_ = eq_.now();
        instrIdx_ = 0;
        advance(eq_.now());
    }
}

bool
Core::robFull(std::uint64_t instrIdx) const
{
    if (outstanding_.empty())
        return false;
    return instrIdx - outstanding_.front().instrIdx
        >= static_cast<std::uint64_t>(params_.robSize);
}

void
Core::scheduleResume(Tick when)
{
    resumeEvent_.cancel();
    resumeEvent_ = eq_.schedule(when, resumeCallee_, epoch_, 0);
}

bool
Core::flushWritebacks()
{
    while (!pendingWritebacks_.empty()) {
        memctrl::Request w;
        w.paddr = pendingWritebacks_.front();
        w.type = memctrl::Request::Type::Write;
        w.coreId = id_;
        w.pid = task_ ? task_->pid() : -1;
        if (!mc_.enqueue(std::move(w)))
            return false;
        pendingWritebacks_.pop_front();
        ++dramWrites;
    }
    return true;
}

void
Core::onFill(std::uint64_t epoch, std::uint64_t instrIdx, Tick fillTick)
{
    // The MSHR frees regardless of which task issued the read.
    --inFlightReads_;

    if (epoch != epoch_) {
        // Response for a context-switched-out task; it may still
        // unblock an MSHR stall of the current task.
        if (stalledOnMshr_ && inFlightReads_ < params_.mshrCount) {
            stalledOnMshr_ = false;
            mshrStallTicks +=
                static_cast<double>(fillTick - stallStart_);
            localTick_ = std::max(localTick_, fillTick);
            advance(fillTick);
        }
        return;
    }

    // O(1) slot lookup replacing the per-fill linear scan: live
    // entries own slot idx % (robSize + 1) exclusively (see
    // fillSlotIdx_), so an owner match is exactly "the miss is still
    // outstanding".
    const std::uint64_t slots = fillSlotIdx_.size();
    if (fillSlotIdx_[static_cast<std::size_t>(instrIdx % slots)]
        == instrIdx) {
        fillSlotFilled_[static_cast<std::size_t>(instrIdx % slots)] =
            1;
    }
    while (!outstanding_.empty()
           && fillSlotFilled_[static_cast<std::size_t>(
                  outstanding_.front().instrIdx % slots)]) {
        outstanding_.pop_front();
    }

    if (stalledOnRob_ && !robFull(instrIdx_)) {
        stalledOnRob_ = false;
        robStallTicks += static_cast<double>(fillTick - stallStart_);
        localTick_ = std::max(localTick_, fillTick);
        advance(fillTick);
    } else if (stalledOnDependency_ && outstanding_.empty()) {
        stalledOnDependency_ = false;
        robStallTicks += static_cast<double>(fillTick - stallStart_);
        localTick_ = std::max(localTick_, fillTick);
        advance(fillTick);
    } else if (stalledOnMshr_ && inFlightReads_ < params_.mshrCount) {
        stalledOnMshr_ = false;
        mshrStallTicks += static_cast<double>(fillTick - stallStart_);
        localTick_ = std::max(localTick_, fillTick);
        advance(fillTick);
    }
}

void
Core::advance(Tick now)
{
    if (!task_ || stalledOnRob_ || stalledOnMshr_
        || stalledOnDependency_ || waitingRetry_) {
        return;
    }

    // The issue clock, the instruction index and the per-op counts
    // live in locals for the whole call and are written back once,
    // when the issue loop returns at a sync point: nothing reads them
    // while advance() runs, and the integer sums the double stats
    // receive stay exact below 2^53.  The local clock never trails
    // the event clock.
    Tick tick = std::max(localTick_, now);
    std::uint64_t idx = instrIdx_;
    std::uint64_t memOps = 0;
    std::uint64_t l1Misses = 0;

    const std::uint64_t robSize =
        static_cast<std::uint64_t>(params_.robSize);
    cache::Cache &l1 = caches_.l1(id_);
    const Tick l1HitCharge = hitChargeTable_[static_cast<std::size_t>(
        l1.params().hitLatency)];
    const Addr lineMask =
        ~(static_cast<Addr>(caches_.l2().params().lineBytes) - 1);
    const os::PageTable &pageTable = task_->pageTable;
    InstructionSource &source = *task_->source;
    const unsigned pageShift = pageShift_;
    const Addr pageOffsetMask = (Addr{1} << pageShift) - 1;
    const Tick until = runUntil_;

    // chargeTicks[n] charges n <= robSize instructions: every batch
    // is a ROB chunk or the memory op.
    const Tick *chargeTicks = chargeTable_.data();
    // The memory op of an L1 hit and the part of its latency the
    // window exposes.
    const Tick l1HitOpCharge = chargeTicks[1] + l1HitCharge;

    auto setRetry = [this] {
        waitingRetry_ = true;
        ++mcBackpressureEvents;
        mc_.requestRetryNotification(resumeCallee_, epoch_, 1);
    };

    // Returns true when execution must pause to let wall-clock catch
    // up with the core-local clock before touching shared state.
    auto needSync = [&]() -> bool {
        if (tick > now) {
            scheduleResume(tick);
            return true;
        }
        return false;
    };

    auto issue = [&] {
        while (true) {
            if (tick >= until)
                return;  // quantum exhausted; scheduler takes over

            // --- Stage A: drain pending write-backs to the MC ---
            if (!pendingWritebacks_.empty()) {
                if (needSync())
                    return;
                if (!flushWritebacks()) {
                    setRetry();
                    return;
                }
                continue;
            }

            // --- Stage B: issue a pending DRAM read miss ---
            if (pendingMiss_) {
                // A pointer-chase load cannot even compute its
                // address until the chain's previous miss returns.
                if (pendingMissDependent_ && !outstanding_.empty()) {
                    if (needSync())
                        return;
                    stalledOnDependency_ = true;
                    stallStart_ = now;
                    return;  // resumed by onFill
                }
                if (inFlightReads_ >= params_.mshrCount) {
                    if (needSync())
                        return;
                    stalledOnMshr_ = true;
                    stallStart_ = now;
                    return;  // resumed by onFill
                }
                if (needSync())
                    return;
                memctrl::Request r;
                r.paddr = *pendingMiss_;
                r.type = memctrl::Request::Type::Read;
                r.coreId = id_;
                r.pid = task_->pid();
                r.completion = this;
                r.cookie0 = epoch_;
                r.cookie1 = pendingMissIdx_;
                if (!mc_.enqueue(std::move(r))) {
                    setRetry();
                    return;
                }
                ++inFlightReads_;
                // Prefetch-covered sequential misses consume
                // bandwidth and an MSHR but do not block retirement.
                if (!(pendingMissSequential_
                      && params_.prefetchSequential)) {
                    const std::size_t s = static_cast<std::size_t>(
                        pendingMissIdx_ % fillSlotIdx_.size());
                    fillSlotIdx_[s] = pendingMissIdx_;
                    fillSlotFilled_[s] = 0;
                    outstanding_.push_back(
                        OutstandingMiss{pendingMissIdx_});
                }
                pendingMiss_.reset();
                ++dramReads;
                ++task_->dramReads;
                continue;
            }

            // --- Stages C-E: trace entries, run in locals ---
            // Stage B is the only place the oldest outstanding miss
            // can change inside one call (fills arrive as events), so
            // the ROB limit is fixed until the loop goes back to
            // Stages A/B; with nothing outstanding the ROB only caps
            // the chunk size.
            const std::uint64_t robLimit = outstanding_.empty()
                ? ~std::uint64_t{0}
                : outstanding_.front().instrIdx + robSize;
            TraceEntry e;
            std::uint64_t gap;
            if (pendingEntry_) {
                e = *pendingEntry_;
                gap = pendingGap_;
                pendingEntry_.reset();
            } else {
                e = source.next();
                gap = e.gap;
            }

            Addr paddr = 0;
            while (true) {
                // --- Stage D: the gap instructions, ROB-limited ---
                while (gap > 0 && idx < robLimit) {
                    const std::uint64_t take =
                        std::min(gap, std::min(robSize, robLimit - idx));
                    tick += chargeTicks[take];
                    idx += take;
                    gap -= take;
                }

                // --- Stage E: the memory operation (one instruction) ---
                if (idx >= robLimit) {
                    // The ROB cannot take instruction idx: park the
                    // entry and the rest of its gap until onFill
                    // resumes us.
                    pendingEntry_ = e;
                    pendingGap_ = gap;
                    if (needSync())
                        return;
                    stalledOnRob_ = true;
                    stallStart_ = now;
                    return;
                }

                // A mapped page translates inline; only a first touch
                // goes through the VM (and may fault).
                const std::uint64_t pfn =
                    pageTable.lookup(e.vaddr >> pageShift);
                if (pfn != os::PageTable::kUnmapped) {
                    paddr = (pfn << pageShift) | (e.vaddr & pageOffsetMask);
                } else {
                    bool faulted = false;
                    paddr = vm_.translate(*task_, e.vaddr, &faulted);
                    if (faulted)
                        tick += pageFaultCharge_;
                }
                ++idx;
                ++memOps;

                if (!l1.accessHit(paddr, e.isWrite))
                    break;
                // L1 hit: no traffic, so Stages A/B stay empty and the
                // next entry starts at Stage C.  The hierarchy counts
                // the hit when the call returns (memOps - l1Misses).
                tick += l1HitOpCharge;
                if (tick >= until)
                    return;  // quantum exhausted
                e = source.next();
                gap = e.gap;
            }

            ++l1Misses;
            tick += chargeTicks[1];
            const auto res = caches_.access(id_, task_->pid(), paddr,
                                            e.isWrite);
            if (!res.dramMiss) {
                // Hit latency partially exposed past the OoO window.
                REFSCHED_ASSERT(res.latency < hitChargeTable_.size(),
                                "hit latency ", res.latency,
                                " outside the charge table");
                tick += hitChargeTable_[res.latency];
            }

            for (int i = 0; i < res.writebackCount; ++i)
                pendingWritebacks_.push_back(res.writebacks[i] & lineMask);

            if (res.dramMiss) {
                pendingMiss_ = paddr & lineMask;
                pendingMissIdx_ = idx;
                pendingMissSequential_ = e.sequential;
                pendingMissDependent_ = e.dependent;
            }
            // Stages A/B pick up the generated DRAM traffic next loop.
        }
    };
    issue();

    const std::uint64_t instrs = idx - instrIdx_;
    localTick_ = tick;
    instrIdx_ = idx;
    task_->instrsRetired += instrs;
    task_->memOps += memOps;
    instrsIssued += static_cast<double>(instrs);
    caches_.countL1Hits(memOps - l1Misses);
}

void
Core::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.add(prefix + ".instrsIssued", &instrsIssued);
    reg.add(prefix + ".dramReads", &dramReads);
    reg.add(prefix + ".dramWrites", &dramWrites);
    reg.add(prefix + ".robStallTicks", &robStallTicks);
    reg.add(prefix + ".mshrStallTicks", &mshrStallTicks);
    reg.add(prefix + ".mcBackpressureEvents", &mcBackpressureEvents);
    reg.add(prefix + ".contextSwitches", &contextSwitches);
    reg.add(prefix + ".droppedWritebacks", &droppedWritebacks);
}

} // namespace refsched::cpu
