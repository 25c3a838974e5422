#include "sim/engine.hpp"

#include "obs/obs.hpp"

namespace cosm::sim {

void Engine::reserve(std::size_t events) {
  // The arena is fixed slabs (stable addresses) and grows a slab at a
  // time on its own; the contiguous structures are worth pre-sizing.
  heap_.reserve(events);
  free_slots_.reserve(events);
}

// Classic hole-based sifts: the node being placed rides in `node`, holes
// move instead of swapping, so each level costs one 24-byte store.

void Engine::sift_up(std::size_t index, Node node) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!earlier(node, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = node;
}

void Engine::sift_down(std::size_t index, Node node) {
  const std::size_t size = heap_.size();
  const Node* heap = heap_.data();
  for (;;) {
    const std::size_t first_child = index * kArity + 1;
    if (first_child >= size) break;
    std::size_t best = first_child;
    if (first_child + kArity <= size) {
      // A full family: a two-level tournament of three comparisons, each
      // a select the compiler can turn into a conditional move — the
      // winner of a random-looking comparison is not worth predicting.
      const Node* family = heap + first_child;
      const std::size_t left = earlier(family[1], family[0]) ? 1 : 0;
      const std::size_t right = earlier(family[3], family[2]) ? 3 : 2;
      best = first_child +
             (earlier(family[right], family[left]) ? right : left);
    } else {
      for (std::size_t c = first_child + 1; c < size; ++c) {
        if (earlier(heap[c], heap[best])) best = c;
      }
    }
    if (!earlier(heap[best], node)) break;
    heap_[index] = heap[best];
    index = best;
  }
  heap_[index] = node;
}

// Instrumentation sits on the run_* entry points, never inside step():
// one span and one counter delta per drain, zero work per event.

void Engine::run_until(double end_time) {
  COSM_REQUIRE(end_time >= now_, "end time precedes current time");
  obs::Span span("sim.run_until");
  const std::uint64_t before = processed_;
  while (immediate_head_ < immediate_.size() ||
         (!heap_.empty() && heap_.front().time() <= end_time) ||
         (monotone_head_ < monotone_.size() &&
          monotone_[monotone_head_].time() <= end_time)) {
    step();
  }
  now_ = end_time;
  obs::add(obs::Counter::kSimEvents, processed_ - before);
}

void Engine::run_all() {
  obs::Span span("sim.run_all");
  const std::uint64_t before = processed_;
  while (step()) {
  }
  obs::add(obs::Counter::kSimEvents, processed_ - before);
}

}  // namespace cosm::sim
