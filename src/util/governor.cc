#include "util/governor.h"

namespace twchase {
namespace {

thread_local ResourceGovernor* g_governor = nullptr;
thread_local int g_mask_depth = 0;

}  // namespace

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kFixpoint: return "fixpoint";
    case StopReason::kStepBudget: return "step-budget";
    case StopReason::kInstanceSizeGuard: return "instance-size-guard";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kMemoryBudget: return "memory-budget";
    case StopReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

CancelToken CancelToken::Create() {
  CancelToken token;
  token.flag_ = std::make_shared<std::atomic<bool>>(false);
  return token;
}

void CancelToken::RequestCancel() const {
  if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
}

ResourceGovernor::ResourceGovernor(const ResourceLimits& limits)
    : ResourceGovernor(limits, CurrentGovernor()) {}

ResourceGovernor::ResourceGovernor(const ResourceLimits& limits,
                                   ResourceGovernor* parent)
    : limits_(limits), parent_(parent) {
  if (limits_.deadline_ms.has_value()) {
    has_deadline_ = true;
    deadline_at_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(*limits_.deadline_ms);
  }
}

bool ResourceGovernor::CheckPassive() {
  if (stopped_) return true;
  if (limits_.cancel.cancel_requested()) {
    Latch(StopReason::kCancelled);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_) {
    Latch(StopReason::kDeadline);
    return true;
  }
  if (parent_ != nullptr && parent_->CheckPassive()) {
    // Inherit the outer stop verbatim: an outer deadline stops the inner
    // run "because of a deadline" even if the inner run has none.
    Latch(parent_->reason());
    return true;
  }
  return false;
}

bool ResourceGovernor::ShouldStop(FaultSite site) {
  if (stopped_) return true;
  ++visits_;

  if (FaultInjector* injector = CurrentFaultInjector()) {
    FaultAction action;
    if (injector->Poll(site, &action)) {
      fault_fired_ = true;
      fault_site_ = site;
      fault_visit_ = injector->visits(site);
      Latch(action == FaultAction::kAllocationFailure
                ? StopReason::kMemoryBudget
                : StopReason::kCancelled);
      return true;
    }
  }

  if (limits_.cancel.cancel_requested()) {
    Latch(StopReason::kCancelled);
    return true;
  }
  if (limits_.memory_budget_bytes > 0 &&
      memory_estimate_ > limits_.memory_budget_bytes) {
    Latch(StopReason::kMemoryBudget);
    return true;
  }
  // The clock read is the only non-trivial cost here; amortize it. The
  // first visit always reads so a deadline of 0ms (already expired at
  // construction) stops before any work happens.
  bool poll_clock = has_deadline_ && (visits_ == 1 || visits_ % kClockPollStride == 0);
  if (poll_clock && std::chrono::steady_clock::now() >= deadline_at_) {
    Latch(StopReason::kDeadline);
    return true;
  }
  if (parent_ != nullptr && parent_->CheckPassive()) {
    Latch(parent_->reason());
    return true;
  }
  return false;
}

ResourceGovernor* CurrentGovernor() { return g_governor; }

GovernorScope::GovernorScope(ResourceGovernor* governor)
    : previous_(g_governor) {
  g_governor = governor;
}

GovernorScope::~GovernorScope() { g_governor = previous_; }

GovernorAtomicSection::GovernorAtomicSection() { ++g_mask_depth; }

GovernorAtomicSection::~GovernorAtomicSection() { --g_mask_depth; }

bool GovernorPoll(FaultSite site) {
  if (g_governor == nullptr || g_mask_depth > 0) return false;
  return g_governor->ShouldStop(site);
}

bool GovernorStopped() {
  return g_governor != nullptr && g_governor->stopped();
}

}  // namespace twchase
