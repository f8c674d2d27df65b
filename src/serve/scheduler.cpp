#include "serve/scheduler.hpp"

#include <algorithm>
#include <string>

#include "la/error.hpp"

namespace qr3d::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::High:
      return "high";
    case Priority::Normal:
      return "normal";
    case Priority::Low:
      return "low";
  }
  return "?";
}

const char* retry_cause_name(RetryCause c) {
  switch (c) {
    case RetryCause::RankDeath:
      return "rank_death";
    case RetryCause::Timeout:
      return "timeout";
  }
  return "?";
}

namespace {

std::string admission_message(std::size_t queue_depth, std::size_t max_queue_depth,
                              double retry_after_seconds) {
  std::string msg = "qr3d::serve: submission rejected — queue depth " +
                    std::to_string(queue_depth) + " at the admission cap of " +
                    std::to_string(max_queue_depth) +
                    " (fail-fast backpressure; retry later or shed load)";
  if (retry_after_seconds > 0.0)
    msg += "; estimated retry-after " + std::to_string(retry_after_seconds) + " s";
  return msg;
}

}  // namespace

AdmissionError::AdmissionError(std::size_t queue_depth, std::size_t max_queue_depth,
                               double retry_after_seconds)
    : std::runtime_error(admission_message(queue_depth, max_queue_depth, retry_after_seconds)),
      queue_depth_(queue_depth),
      max_queue_depth_(max_queue_depth),
      retry_after_seconds_(retry_after_seconds) {}

void Scheduler::push(std::shared_ptr<detail::Job> job) {
  QR3D_ASSERT(job != nullptr, "Scheduler::push: null job");
  queue_.push_back(std::move(job));
}

int Scheduler::effective_class(const detail::Job& job,
                               std::chrono::steady_clock::time_point now) const {
  int cls = static_cast<int>(job.priority);
  if (age_promote_after_ > std::chrono::steady_clock::duration::zero() &&
      now > job.submitted_at) {
    const auto waited = now - job.submitted_at;
    const auto promotions = static_cast<int>(waited / age_promote_after_);
    cls = std::max(0, cls - promotions);
  }
  return cls;
}

bool Scheduler::before(const detail::Job& a, const detail::Job& b,
                       std::chrono::steady_clock::time_point now) const {
  const int ca = effective_class(a, now), cb = effective_class(b, now);
  if (ca != cb) return ca < cb;
  // EDF within the class; a job without a deadline sorts after every
  // deadlined peer (deadline = +inf).
  const auto da = a.has_deadline ? a.deadline : std::chrono::steady_clock::time_point::max();
  const auto db = b.has_deadline ? b.deadline : std::chrono::steady_clock::time_point::max();
  if (da != db) return da < db;
  return a.seq < b.seq;  // FIFO tiebreak
}

std::shared_ptr<detail::Job> Scheduler::pop(std::chrono::steady_clock::time_point now,
                                            bool include_delayed) {
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!include_delayed && (*it)->ready_at > now) continue;
    if (best == queue_.end() || before(**it, **best, now)) best = it;
  }
  if (best == queue_.end()) return nullptr;
  std::shared_ptr<detail::Job> job = std::move(*best);
  queue_.erase(best);
  return job;
}

std::vector<std::shared_ptr<detail::Job>> Scheduler::pop_same_shape(
    la::index_t m, la::index_t n, std::size_t max_jobs,
    std::chrono::steady_clock::time_point now, bool include_delayed) {
  std::vector<std::shared_ptr<detail::Job>> out;
  while (out.size() < max_jobs) {
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->A.rows() != m || (*it)->A.cols() != n) continue;
      if (!include_delayed && (*it)->ready_at > now) continue;
      if (best == queue_.end() || before(**it, **best, now)) best = it;
    }
    if (best == queue_.end()) break;
    out.push_back(std::move(*best));
    queue_.erase(best);
  }
  return out;
}

bool Scheduler::has_ready(std::chrono::steady_clock::time_point now) const {
  for (const auto& job : queue_)
    if (job->ready_at <= now) return true;
  return false;
}

std::optional<std::chrono::steady_clock::time_point> Scheduler::next_ready_at() const {
  std::optional<std::chrono::steady_clock::time_point> next;
  for (const auto& job : queue_)
    if (!next || job->ready_at < *next) next = job->ready_at;
  return next;
}

std::vector<std::shared_ptr<detail::Job>> Scheduler::drain() {
  std::vector<std::shared_ptr<detail::Job>> out = std::move(queue_);
  queue_.clear();
  return out;
}

std::vector<std::shared_ptr<detail::Job>> Scheduler::snapshot() const { return queue_; }

std::size_t Scheduler::count_shape(la::index_t m, la::index_t n) const {
  std::size_t count = 0;
  for (const auto& job : queue_)
    if (job->A.rows() == m && job->A.cols() == n) ++count;
  return count;
}

}  // namespace qr3d::serve
