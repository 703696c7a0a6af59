// A std::vector captured by value at a parallel_for site is copied once
// per chunk: declared as a parameter, and as a local behind a multi-line
// call whose capture list sits on the second line.
#include <vector>
void f(std::vector<float> weights, std::size_t n) {
  parallel::parallel_for(0, n, [weights](std::size_t i) {  // detcheck:expect vector-value-capture
    use(weights[i]);
  });
}
void g(std::size_t n) {
  std::vector<double> table(n);
  parallel::parallel_for_chunks(
      0, n, [table](std::size_t b, std::size_t e) {  // detcheck:expect vector-value-capture
    use(table[b]);
  });
}
