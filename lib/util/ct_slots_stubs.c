/* CAS on an arbitrary field of a heap block, for Ct_util.Field.
 *
 * caml_atomic_cas_field is the runtime primitive behind
 * Atomic.compare_and_set (an Atomic.t is a 1-field block CASed at
 * index 0); it performs a sequentially-consistent CAS and runs the
 * GC write barrier on success, so storing young pointers into major
 * blocks is safe.  Exported by <caml/memory.h> since OCaml 5.0. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

CAMLprim value ct_slots_cas_stub(value arr, value idx, value oldv, value newv)
{
  return Val_bool(caml_atomic_cas_field(arr, Long_val(idx), oldv, newv));
}
