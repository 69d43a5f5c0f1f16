#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace bpar::serve {

namespace {

constexpr Batcher::TimePoint kNoDeadline{};

bool expired(const Request& request, Batcher::TimePoint now) {
  return request.deadline != kNoDeadline && now > request.deadline;
}

}  // namespace

Batcher::Batcher(const EngineOptions& options)
    : max_batch_(static_cast<std::size_t>(options.max_batch)),
      max_delay_(options.max_delay_us),
      shed_wait_(options.shed_wait_us != 0 ? options.shed_wait_us
                                           : 16U * options.max_delay_us),
      max_queue_(options.max_queue) {
  BPAR_CHECK(options.max_batch >= 1, "max_batch must be >= 1");
  BPAR_CHECK(options.max_queue >= 1, "max_queue must be >= 1");
  for (std::size_t cls = 0; cls < quota_.size(); ++cls) {
    quota_[cls] = options.class_quota[cls] != 0 ? options.class_quota[cls]
                                                : max_queue_;
  }
}

Status Batcher::admit(Pending& pending, TimePoint now) {
  // An expired deadline never earns a queue slot: answering it now keeps
  // dead requests from delaying live ones through the bounded queue.
  if (expired(pending.request, now)) return Status::kDeadlineExceeded;
  if (closed_) return Status::kShutdown;
  const auto cls = static_cast<std::size_t>(pending.request.priority);
  if (queued() >= max_queue_ || queues_[cls].size() >= quota_[cls]) {
    return Status::kRejected;
  }
  pending.enqueued = now;
  queues_[cls].push_back(std::move(pending));
  return Status::kOk;
}

Batcher::Step Batcher::step(TimePoint now) {
  Step out;
  if (!group_) {
    if (queued() == 0) return out;
    shed_overdue(now, out.shed);
    // Strict priority: the head comes from the highest non-empty class. Its
    // length fixes the group: BRNN outputs depend on the whole sequence, so
    // only requests of the SAME length coalesce (rows pad; timesteps never).
    const auto head = std::find_if(queues_.begin(), queues_.end(),
                                   [](const auto& q) { return !q.empty(); });
    group_ = Group{head->front().request.steps,
                   head->front().enqueued + max_delay_};
  }
  if (!closed_ && matching(group_->steps) < max_batch_ &&
      now < group_->flush_at) {
    out.wake = group_->flush_at;
    return out;
  }
  // Seal: up to max_batch requests of the group's length, classes in
  // priority order, FIFO within a class.
  for (auto& queue : queues_) {
    for (auto it = queue.begin();
         it != queue.end() && out.expired.size() + out.batch.size() <
                                  max_batch_;) {
      if (it->request.steps != group_->steps) {
        ++it;
        continue;
      }
      (expired(it->request, now) ? out.expired : out.batch)
          .push_back(std::move(*it));
      it = queue.erase(it);
    }
  }
  group_.reset();
  return out;
}

void Batcher::shed_overdue(TimePoint now, std::vector<Pending>& shed) {
  // Lowest class first; kHigh (class 0) is never shed. Stop as soon as the
  // backlog fits in one micro-batch again: shedding is a pressure valve,
  // not a purge.
  for (std::size_t cls = queues_.size() - 1; cls >= 1; --cls) {
    auto& queue = queues_[cls];
    while (!queue.empty() && queued() > max_batch_ &&
           now - queue.front().enqueued > shed_wait_) {
      shed.push_back(std::move(queue.front()));
      queue.pop_front();
    }
  }
}

std::size_t Batcher::matching(int steps) const {
  std::size_t n = 0;
  for (const auto& queue : queues_) {
    n += static_cast<std::size_t>(
        std::count_if(queue.begin(), queue.end(), [&](const Pending& p) {
          return p.request.steps == steps;
        }));
  }
  return n;
}

std::size_t Batcher::queued() const {
  std::size_t n = 0;
  for (const auto& queue : queues_) n += queue.size();
  return n;
}

std::size_t Batcher::queued(Priority cls) const {
  return queues_[static_cast<std::size_t>(cls)].size();
}

}  // namespace bpar::serve
