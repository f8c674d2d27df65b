#include "serve/plan_cache.hpp"

namespace qr3d::serve {

Plan PlanCache::lookup_or_tune(const PlanKey& key, const sim::CostParams& machine) {
  return lookup_or_compute(key, [&]() {
    const cost::Tuned3d t = cost::tune_3d(static_cast<double>(key.m), static_cast<double>(key.n),
                                          key.P, machine);
    Plan plan;
    plan.delta = t.delta;
    plan.epsilon = t.epsilon;
    plan.predicted = t.predicted;
    return plan;
  });
}

void PlanCache::touch(std::map<PlanKey, Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

void PlanCache::enforce_capacity() {
  if (capacity_ == 0) return;  // unbounded
  while (plans_.size() > capacity_) {
    plans_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

Plan PlanCache::lookup_or_compute(const PlanKey& key, const std::function<Plan()>& compute) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++hits_;
    touch(it);
    return it->second.plan;
  }
  // Computing inside the lock keeps "tune each key exactly once" true under
  // concurrent lookups; tuning is a pure model computation (no simulated
  // cost is charged), so holding the mutex is harmless.
  Plan plan = compute();
  lru_.push_front(key);
  plans_.emplace(key, Entry{plan, lru_.begin()});
  ++misses_;
  enforce_capacity();
  return plan;
}

bool PlanCache::contains(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.find(key) != plans_.end();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  enforce_capacity();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

PlanKey make_plan_key(la::index_t m, la::index_t n, int P, Dist layout, backend::Kind backend,
                      const sim::CostParams& machine, core::Accuracy accuracy) {
  PlanKey key;
  key.m = m;
  key.n = n;
  key.P = P;
  key.layout = layout;
  key.backend = backend;
  key.alpha = machine.alpha;
  key.beta = machine.beta;
  key.gamma = machine.gamma;
  key.accuracy = accuracy;
  return key;
}

}  // namespace qr3d::serve
