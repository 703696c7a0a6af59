// Output goes through LogStream (log_info("component") << ...), never
// straight to stdout, so every line carries its component and level.
#include <cstdio>
#include <iostream>

namespace alsflow {

void report(int n) {
  std::cout << "scans: " << n << "\n";  // detcheck:expect stdout-logging
  printf("scans: %d\n", n);  // detcheck:expect stdout-logging
  fprintf(stdout, "scans: %d\n", n);  // detcheck:expect stdout-logging
}

}  // namespace alsflow
