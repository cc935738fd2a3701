#include "audit/invariant_auditor.hpp"

#include <sstream>

namespace batcher::audit {

namespace hooks = rt::hooks;
using rt::TaskKind;

namespace {

const char* status_name(int s) {
  switch (s) {
    case 0: return "free";
    case 1: return "pending";
    case 2: return "executing";
    case 3: return "done";
    default: return "?";
  }
}

const char* kind_name(TaskKind k) {
  return k == TaskKind::Core ? "core" : "batch";
}

}  // namespace

InvariantAuditor::InvariantAuditor(unsigned num_workers)
    : num_workers_(num_workers), workers_(num_workers) {}

InvariantAuditor::DomainState& InvariantAuditor::domain_state(
    const void* domain) {
  auto [it, inserted] = domains_.try_emplace(domain);
  if (inserted) {
    it->second.flag_holder = hooks::kNoWorker;
    it->second.last_launcher = hooks::kNoWorker;
    it->second.status.assign(workers_.size(), Status::Free);
  }
  return it->second;
}

InvariantAuditor::WorkerState& InvariantAuditor::worker_state(unsigned worker) {
  if (worker >= workers_.size()) {
    // Unknown worker id: grow defensively so the model stays total.
    workers_.resize(worker + 1);
    for (auto& [ptr, dom] : domains_) {
      (void)ptr;
      dom.status.resize(workers_.size(), Status::Free);
    }
  }
  return workers_[worker];
}

void InvariantAuditor::violate(const rt::hooks::Event& event,
                               std::string invariant, std::string detail) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) {
    std::ostringstream os;
    os << detail << " [at " << trace::event_info(event.id).name << ", context "
       << kind_name(event.context) << "]";
    violations_.push_back(
        Violation{std::move(invariant), event.worker, os.str()});
  }
}

void InvariantAuditor::check_status_edge(const rt::hooks::Event& event,
                                         Status from, Status to) {
  DomainState& dom = domain_state(event.domain);
  worker_state(event.worker);  // ensure dom.status covers event.worker
  Status& cur = dom.status[event.worker];
  if (cur != from) {
    std::ostringstream os;
    os << "worker " << event.worker << " moved "
       << status_name(static_cast<int>(cur)) << "->"
       << status_name(static_cast<int>(to)) << " but the only legal source of "
       << status_name(static_cast<int>(to)) << " is "
       << status_name(static_cast<int>(from));
    violate(event, "Fig. 3 (trapped-worker status machine)", os.str());
  }
  cur = to;
  // The executing-side edges may only be flipped while the domain's (unique)
  // launcher is inside LAUNCHBATCH.
  if ((to == Status::Executing || to == Status::Done) &&
      dom.active_launches <= 0) {
    std::ostringstream os;
    os << "worker " << event.worker << "'s status flipped to "
       << status_name(static_cast<int>(to)) << " with no LAUNCHBATCH active";
    violate(event, "Invariant 1 (one active batch)", os.str());
  }
}

void InvariantAuditor::on_event(const rt::hooks::Event& event) {
  using P = hooks::EventId;
  std::lock_guard<std::mutex> lock(mu_);
  ++events_;

  switch (event.id) {
    case P::kPush:
      // Spawns inherit the spawner's dag: a task's kind must match the dag
      // context it was pushed from (Invariant 3).
      if (event.deque != event.context) {
        std::ostringstream os;
        os << "worker " << event.worker << " pushed a " << kind_name(event.deque)
           << " task while in " << kind_name(event.context) << " context";
        violate(event, "Invariant 3 (core/batch deque separation)", os.str());
      }
      break;

    case P::kPop:
    case P::kSteal: {
      WorkerState& ws = worker_state(event.worker);
      if (event.deque == TaskKind::Core) {
        if (ws.trapped) {
          std::ostringstream os;
          os << "worker " << event.worker
             << " is trapped (suspended op in domain " << ws.trapped_domain
             << ") but touched a core deque";
          violate(event, "Fig. 3 (trapped workers execute only batch work)",
                  os.str());
        }
        if (event.context == TaskKind::Batch) {
          std::ostringstream os;
          os << "worker " << event.worker
             << " touched a core deque from batch context";
          violate(event, "Invariant 3 (core/batch deque separation)",
                  os.str());
        }
      }
      break;
    }

    case P::kAlternatingSteal: {
      WorkerState& ws = worker_state(event.worker);
      const int kind = static_cast<int>(event.deque);
      if (ws.last_alternating == kind) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " aimed two consecutive free-worker steals at "
           << kind_name(event.deque) << " deques";
        violate(event, "§4 (alternating-steal parity)", os.str());
      }
      ws.last_alternating = kind;
      break;
    }

    case P::kTaskBegin: {
      WorkerState& ws = worker_state(event.worker);
      if (ws.trapped && event.deque == TaskKind::Core) {
        std::ostringstream os;
        os << "worker " << event.worker << " ran a core task while trapped";
        violate(event, "Fig. 3 (trapped workers execute only batch work)",
                os.str());
      }
      break;
    }

    case P::kOpSubmit: {
      WorkerState& ws = worker_state(event.worker);
      if (ws.trapped) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " entered batchify while already trapped (domain "
           << ws.trapped_domain << ") — more than one suspended op";
        violate(event, "Fig. 3 (one suspended op per worker)", os.str());
      }
      ws.trapped = true;
      ws.trapped_domain = event.domain;
      break;
    }

    case P::kOpResume: {
      WorkerState& ws = worker_state(event.worker);
      if (!ws.trapped) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " exited batchify without a matching enter";
        violate(event, "Fig. 3 (one suspended op per worker)", os.str());
      }
      ws.trapped = false;
      ws.trapped_domain = nullptr;
      break;
    }

    case P::kFlagWon: {
      DomainState& dom = domain_state(event.domain);
      if (dom.flag_holder != hooks::kNoWorker) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " won the batch flag while worker " << dom.flag_holder
           << " still holds it";
        violate(event, "Invariant 1 (one active batch)", os.str());
      }
      dom.flag_holder = event.worker;
      break;
    }

    case P::kLaunchEnter: {
      DomainState& dom = domain_state(event.domain);
      if (dom.flag_holder != event.worker) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " entered LAUNCHBATCH without holding the batch flag (holder: ";
        if (dom.flag_holder == hooks::kNoWorker) {
          os << "none — the batch-flag CAS was skipped";
        } else {
          os << "worker " << dom.flag_holder;
        }
        os << ")";
        violate(event, "Invariant 1 (one active batch)", os.str());
      }
      ++dom.active_launches;
      if (dom.active_launches > 1) {
        std::ostringstream os;
        os << "worker " << event.worker << " entered LAUNCHBATCH while "
           << (dom.active_launches - 1) << " launch(es) already active";
        violate(event, "Invariant 1 (one active batch)", os.str());
      }
      break;
    }

    case P::kCollected: {
      domain_state(event.domain);
      if (event.value > num_workers_) {
        std::ostringstream os;
        os << "LAUNCHBATCH on worker " << event.worker << " collected "
           << event.value << " ops but P = " << num_workers_;
        violate(event, "Invariant 2 (batch size at most P)", os.str());
      }
      break;
    }

    case P::kLaunchExit: {
      DomainState& dom = domain_state(event.domain);
      if (dom.active_launches != 1) {
        std::ostringstream os;
        os << "worker " << event.worker << " exited LAUNCHBATCH with "
           << dom.active_launches << " launches active (expected 1)";
        violate(event, "Invariant 1 (one active batch)", os.str());
      }
      dom.active_launches = dom.active_launches > 0 ? dom.active_launches - 1 : 0;
      // Remember who exited: a kLaunchChained event may re-establish this
      // worker as holder without an intervening kFlagWon (the real flag
      // never reopened between the two launches).
      dom.last_launcher = event.worker;
      dom.flag_holder = hooks::kNoWorker;
      break;
    }

    case P::kAnnouncePush: {
      DomainState& dom = domain_state(event.domain);
      worker_state(event.worker);  // ensure dom.status covers event.worker
      if (dom.status[event.worker] != Status::Pending) {
        std::ostringstream os;
        os << "worker " << event.worker << " announced a slot whose status is "
           << status_name(static_cast<int>(dom.status[event.worker]))
           << " (only pending slots may be announced)";
        violate(event, "§11 (announce-list protocol)", os.str());
      }
      break;
    }

    case P::kAnnounceClaim: {
      DomainState& dom = domain_state(event.domain);
      if (dom.flag_holder != event.worker) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " claimed the announce list without holding the batch flag "
           << "(holder: ";
        if (dom.flag_holder == hooks::kNoWorker) {
          os << "none";
        } else {
          os << "worker " << dom.flag_holder;
        }
        os << ")";
        violate(event, "§11 (announce-list protocol)", os.str());
      }
      if (dom.active_launches != 1) {
        std::ostringstream os;
        os << "worker " << event.worker << " claimed the announce list with "
           << dom.active_launches << " launches active (expected 1)";
        violate(event, "§11 (announce-list protocol)", os.str());
      }
      break;
    }

    case P::kLaunchChained: {
      DomainState& dom = domain_state(event.domain);
      if (dom.flag_holder != hooks::kNoWorker) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " chained a launch while worker " << dom.flag_holder
           << " is still inside one";
        violate(event, "Invariant 1 (one active batch)", os.str());
      }
      if (event.worker != dom.last_launcher) {
        std::ostringstream os;
        os << "worker " << event.worker
           << " chained a launch but the previous launch exited on ";
        if (dom.last_launcher == hooks::kNoWorker) {
          os << "no worker (no launch has exited yet)";
        } else {
          os << "worker " << dom.last_launcher;
        }
        violate(event, "§11 (announce-list protocol)", os.str());
      }
      if (event.value < 1) {
        std::ostringstream os;
        os << "worker " << event.worker << " chained a launch with chain index "
           << event.value << " (must be >= 1)";
        violate(event, "§11 (announce-list protocol)", os.str());
      }
      // The chained launch runs under the same (never reopened) flag hold.
      dom.flag_holder = event.worker;
      break;
    }

    case P::kStatusFreeToPending:
      check_status_edge(event, Status::Free, Status::Pending);
      break;
    case P::kStatusPendingToExecuting:
      check_status_edge(event, Status::Pending, Status::Executing);
      break;
    case P::kStatusExecutingToDone:
      check_status_edge(event, Status::Executing, Status::Done);
      break;
    case P::kStatusDoneToFree:
      check_status_edge(event, Status::Done, Status::Free);
      break;

    // ExternalDomain ingress events: the subject is an external (non-worker)
    // thread, so `event.worker` is kNoWorker for submit/revoke and a pump
    // worker for claim — neither maps onto the per-worker trapped-op model
    // above (the external slot array is indexed by tid, not worker id).
    // These points, and the pump park, exist for the perturber and
    // FaultSchedule to widen race windows; the auditor only counts them.
    // Ring-only entries never reach an observer.
    default:
      break;
  }
}

void InvariantAuditor::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_ = 0;
  violation_count_ = 0;
  violations_.clear();
  domains_.clear();
  workers_.assign(num_workers_, WorkerState{});
}

std::uint64_t InvariantAuditor::events_observed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::uint64_t InvariantAuditor::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violation_count_;
}

std::vector<Violation> InvariantAuditor::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::string InvariantAuditor::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "InvariantAuditor: " << events_ << " events observed, "
     << violation_count_ << " violation(s)";
  if (violation_count_ > violations_.size()) {
    os << " (first " << violations_.size() << " recorded)";
  }
  os << "\n";
  for (const Violation& v : violations_) {
    os << "  [" << v.invariant << "] worker ";
    if (v.worker == hooks::kNoWorker) {
      os << "<none>";
    } else {
      os << v.worker;
    }
    os << ": " << v.detail << "\n";
  }
  return os.str();
}

std::string InvariantAuditor::state_dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "protocol state model after " << events_ << " event(s):\n";
  for (const auto& [domain, dom] : domains_) {
    os << "  domain " << domain << ": flag holder=";
    if (dom.flag_holder == hooks::kNoWorker) {
      os << "<none>";
    } else {
      os << "worker " << dom.flag_holder;
    }
    os << ", active launches=" << dom.active_launches << ", slots=[";
    for (std::size_t i = 0; i < dom.status.size(); ++i) {
      if (i != 0) os << " ";
      os << status_name(static_cast<int>(dom.status[i]));
    }
    os << "]\n";
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    os << "  worker " << i << ": "
       << (workers_[i].trapped ? "trapped" : "free");
    if (workers_[i].trapped) {
      os << " (domain " << workers_[i].trapped_domain << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace batcher::audit
