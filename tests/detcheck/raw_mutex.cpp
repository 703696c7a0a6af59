// Raw std primitives hide the lock from clang's -Wthread-safety analysis;
// the annotated alsflow::Mutex / LockGuard / UniqueLock wrappers do not.
#include <mutex>

namespace alsflow {

class Counter {
 public:
  void add(int v) {
    std::lock_guard<std::mutex> lock(m_);  // detcheck:expect raw-mutex
    total_ += v;
  }

 private:
  std::mutex m_;  // detcheck:expect raw-mutex
  int total_ = 0;
};

}  // namespace alsflow
