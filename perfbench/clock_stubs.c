/* Monotonic nanosecond clock for the benchmark's spans: the stdlib's
   Unix.gettimeofday has microsecond resolution and is not monotonic. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
