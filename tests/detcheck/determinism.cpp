// Wall clocks, OS randomness and sleeps in sim-domain code: a replay of
// the same scan must be byte-identical, so time comes from
// sim::Engine::now() and randomness from the seeded common/rng.hpp.
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

namespace alsflow {

double stamp() {
  auto t = std::chrono::steady_clock::now();  // detcheck:expect determinism
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

int jitter() {
  std::random_device rd;  // detcheck:expect determinism
  return int(rd()) + rand();  // detcheck:expect determinism
}

void backoff() {
  std::this_thread::sleep_for(std::chrono::seconds(1));  // detcheck:expect determinism
}

}  // namespace alsflow
