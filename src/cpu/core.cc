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
    fillSlotIdx_.assign(static_cast<std::size_t>(params_.robSize) + 1,
                        0);
    fillSlotFilled_.assign(
        static_cast<std::size_t>(params_.robSize) + 1, 0);
}

void
Core::ResumeCallee::fire(Tick now, std::uint64_t epoch, std::uint64_t)
{
    if (epoch == core->epoch_)
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
Core::robFull() const
{
    if (outstanding_.empty())
        return false;
    return instrIdx_ - outstanding_.front().instrIdx
        >= static_cast<std::uint64_t>(params_.robSize);
}

void
Core::chargeInstructions(std::uint64_t n)
{
    if (n == 0)
        return;
    localTick_ += n < chargeTable_.size()
        ? chargeTable_[n]
        : static_cast<Tick>(
              std::llround(static_cast<double>(n) * cpiTicks_));
    instrIdx_ += n;
    task_->instrsRetired += n;
    instrsIssued += static_cast<double>(n);
}

void
Core::chargeCycles(double cycles)
{
    localTick_ += static_cast<Tick>(std::llround(
        cycles * static_cast<double>(params_.cpuPeriod)));
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

    if (stalledOnRob_ && !robFull()) {
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
    // The local clock never trails the event clock.
    localTick_ = std::max(localTick_, now);

    auto setRetry = [this] {
        waitingRetry_ = true;
        ++mcBackpressureEvents;
        mc_.requestRetryNotification([this, e = epoch_] {
            if (e == epoch_) {
                waitingRetry_ = false;
                advance(eq_.now());
            }
        });
    };

    // Returns true when execution must pause to let wall-clock catch
    // up with the core-local clock before touching shared state.
    auto needSync = [&]() -> bool {
        if (localTick_ > now) {
            scheduleResume(localTick_);
            return true;
        }
        return false;
    };

    while (true) {
        if (localTick_ >= runUntil_)
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
            // A pointer-chase load cannot even compute its address
            // until the chain's previous miss returns.
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
            // Prefetch-covered sequential misses consume bandwidth
            // and an MSHR but do not block retirement.
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

        // --- Stage C: fetch the next trace entry ---
        if (!pendingEntry_) {
            pendingEntry_ = task_->source->next();
            pendingGap_ = pendingEntry_->gap;
        }

        // --- Stage D: issue the gap instructions, ROB-limited ---
        while (pendingGap_ > 0) {
            if (robFull()) {
                if (needSync())
                    return;
                stalledOnRob_ = true;
                stallStart_ = now;
                return;  // resumed by onFill
            }
            std::uint64_t space =
                static_cast<std::uint64_t>(params_.robSize);
            if (!outstanding_.empty()) {
                space = static_cast<std::uint64_t>(params_.robSize)
                    - (instrIdx_ - outstanding_.front().instrIdx);
            }
            const std::uint64_t take = std::min(pendingGap_, space);
            chargeInstructions(take);
            pendingGap_ -= take;
        }

        // --- Stage E: the memory operation (one instruction) ---

        if (robFull()) {
            if (needSync())
                return;
            stalledOnRob_ = true;
            stallStart_ = now;
            return;
        }

        bool faulted = false;
        const Addr paddr =
            vm_.translate(*task_, pendingEntry_->vaddr, &faulted);
        if (faulted)
            chargeCycles(
                static_cast<double>(params_.pageFaultPenalty));

        const bool isWrite = pendingEntry_->isWrite;
        const auto res = caches_.access(id_, task_->pid(), paddr,
                                        isWrite);
        chargeInstructions(1);
        ++task_->memOps;

        if (!res.dramMiss && res.latency > 0) {
            // Hit latency partially exposed past the OoO window.
            chargeCycles(static_cast<double>(res.latency)
                         * params_.hitLatencyVisibility);
        }

        const Addr lineMask =
            ~(static_cast<Addr>(caches_.l2().params().lineBytes) - 1);
        for (int i = 0; i < res.writebackCount; ++i)
            pendingWritebacks_.push_back(res.writebacks[i] & lineMask);

        if (res.dramMiss) {
            pendingMiss_ = paddr & lineMask;
            pendingMissIdx_ = instrIdx_;
            pendingMissSequential_ = pendingEntry_->sequential;
            pendingMissDependent_ = pendingEntry_->dependent;
        }

        pendingEntry_.reset();
        // Stages A/B pick up the generated DRAM traffic next loop.
    }
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
