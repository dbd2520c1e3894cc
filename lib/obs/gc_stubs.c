/* The runtime's collection counters, read without building a
   [Gc.quick_stat] record (~1.5 us on OCaml 5.1, which dominated the cost
   of a trace span).  Minor collections stop every domain, so the count
   is the same on each; it is the figure [Gc.quick_stat] reports as
   [minor_collections], and the completed major cycles its
   [major_collections]. */
#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/minor_gc.h>
#include <caml/major_gc.h>

value lcm_obs_gc_collections(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&caml_minor_collections_count) + caml_major_cycles_completed);
}
