/* Monotonic host clock in nanoseconds for the benchmark's spans.
   Unix.gettimeofday only resolves microseconds, coarser than many of
   the app-handler spans the traced run records. */
#include <time.h>
#include <caml/mlvalues.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}
