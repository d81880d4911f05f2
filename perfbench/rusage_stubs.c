/* wait4(2) for the launcher: the exit code and peak RSS of one child. */
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(r < 0 ? -1
                      : WIFEXITED(status) ? WEXITSTATUS(status)
                      : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(r < 0 ? 0 : ru.ru_maxrss));
  CAMLreturn(res);
}
