// Clean control: near misses for every rule. Nothing here may fire — this
// file guards against over-firing.
#include <chrono>
#include <cstdio>
#include <string>

namespace alsflow {

// A comment naming std::mutex, steady_clock, printf and std::cout is fine.
class Recorder {
 public:
  void record(double v) {
    LockGuard lock(mu_);
    total_ += v;
  }
  double when() const { return eng_.now(); }
  bool coin(double p) { return rng_.bernoulli(p); }  // seeded

 private:
  alsflow::Mutex mu_;
  double total_ = 0.0;
};

void format(char* buf, std::size_t n, double v, const std::string& line) {
  std::snprintf(buf, n, "%g", v);  // not printf
  std::fprintf(stderr, "%s\n", line.c_str());  // stderr, not stdout
  int operand = int(v);  // 'rand' inside a word
  (void)operand;
}

double bench_wall() {
  auto t = std::chrono::steady_clock::now();  // detcheck:allow determinism wall-clock bench helper
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace alsflow
