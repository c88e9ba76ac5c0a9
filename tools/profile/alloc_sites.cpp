// The allocation hook's self-test workload: per operation, three
// allocations at one site and one at another. `profile.py alloc-self-test`
// records it with the hook and checks both counts per operation against
// the lines marked below.
#include <cstdio>
#include <cstdlib>

namespace {

void* volatile g_sink;

__attribute__((noinline)) void three_per_op() {
  for (int i = 0; i < 3; ++i) {
    void* p = std::malloc(64);  // site: three per op
    g_sink = p;
    std::free(p);
  }
}

__attribute__((noinline)) void one_per_op() {
  char* p = new char[256];  // site: one per op
  g_sink = p;
  delete[] p;
}

}  // namespace

int main(int argc, char** argv) {
  const long ops = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 1000;
  for (long op = 0; op < ops; ++op) {
    three_per_op();
    one_per_op();
  }
  std::printf("%ld operations\n", ops);
  return 0;
}
