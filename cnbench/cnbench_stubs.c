#define _GNU_SOURCE
#include <sched.h>
#include <sys/prctl.h>
#include <caml/mlvalues.h>

/* Timer slack for the load generator's thread.  Linux lets a sleeping
   select() overrun its timeout by the thread's timer slack, 50 us by
   default — twice the mean gap between requests at 40k ops/s — so an
   open-loop generator would send most requests late. */

value cnbench_set_timer_slack(value ns)
{
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) == 0);
}

/* CPU affinity of the calling thread.  k >= 0 pins it to the k-th CPU,
   modulo their number, of the set the process started with; k < 0
   gives that whole set back.  Processes it starts inherit its set.  The
   first call, which reads the starting set, must come before any other
   domain runs. */

static cpu_set_t allowed;
static int allowed_read = 0;

value cnbench_pin_cpu(value k)
{
  long want = Long_val(k);
  cpu_set_t set;
  if (!allowed_read) {
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_false;
    allowed_read = 1;
  }
  if (want < 0) {
    set = allowed;
  } else {
    int n = CPU_COUNT(&allowed);
    if (n == 0) return Val_false;
    want %= n;
    CPU_ZERO(&set);
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
      if (CPU_ISSET(cpu, &allowed) && want-- == 0) {
        CPU_SET(cpu, &set);
        break;
      }
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
