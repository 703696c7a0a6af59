// Reference captures, scalar value captures, a value capture in a
// non-pool lambda, and a suppressed line: all silent.
#include <vector>
void f(const std::vector<float>& weights, std::size_t n) {
  double scale = 2.0;
  parallel::parallel_for(0, n, [&weights, scale](std::size_t i) {
    use(weights[i] * scale);
  });
  parallel::parallel_for(0, n, [&](std::size_t i) {
    use(weights[i]);
  });
  auto cold = [weights]() { use(weights[0]); };
  cold();
  parallel::parallel_for(0, n, [weights](std::size_t i) {  // detcheck:allow vector-value-capture small and immutable
    use(weights[i]);
  });
}
