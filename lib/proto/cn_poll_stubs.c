/* Poll a blocking socket for a bounded time before parking in read(2).
 *
 * cn_poll_recv(fd, buf, ofs, len, budget_ns) retries
 * recv(fd, ..., MSG_DONTWAIT), yielding the CPU between tries, until
 * data or EOF arrives or budget_ns nanoseconds of CLOCK_MONOTONIC have
 * passed.  It returns the byte count copied into buf at ofs (as
 * Unix.read does), 0 on EOF, or -1 once the budget has passed with
 * nothing to read.  Any error other than EAGAIN/EWOULDBLOCK/EINTR
 * raises Unix.Unix_error.  The OCaml runtime lock is released for the
 * whole poll, so other threads run while it spins; the bytes land in a
 * C buffer first because the heap may move while the lock is free.
 */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <errno.h>
#include <sched.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <time.h>

#define CN_POLL_CHUNK 65536

static long long cn_now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

CAMLprim value cn_poll_recv(value vfd, value vbuf, value vofs, value vlen,
                            value vbudget)
{
  CAMLparam1(vbuf);
  char chunk[CN_POLL_CHUNK];
  int fd = Int_val(vfd);
  long len = Long_val(vlen);
  long long budget = Long_val(vbudget);
  long long deadline;
  ssize_t n;
  int err = 0;

  if (len > CN_POLL_CHUNK) len = CN_POLL_CHUNK;
  caml_enter_blocking_section();
  deadline = cn_now_ns() + budget;
  for (;;) {
    n = recv(fd, chunk, len, MSG_DONTWAIT);
    if (n >= 0) break;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      err = errno;
      break;
    }
    if (cn_now_ns() >= deadline) break;
    sched_yield();
  }
  caml_leave_blocking_section();
  if (err != 0) caml_unix_error(err, "recv", Nothing);
  if (n > 0) memcpy(&Byte(vbuf, Long_val(vofs)), chunk, n);
  CAMLreturn(Val_long(n));
}
