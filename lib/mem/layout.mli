(** Virtual-address-space layout of a WFD.

    The paper's WFD divides one process address space into a system
    partition (as-visor + as-libos code and heap) and a user partition
    (per-function code/heap/stack plus the trampoline pages).  This
    module fixes the region geometry so every component agrees on where
    things live. *)

type region = { base : int; size : int }

val contains : region -> int -> bool
val region_end : region -> int
(** One past the last byte. *)

(** {1 System partition} *)

val visor_code : region
val libos_code : region
val libos_heap : region
(** Where as-libos allocates AsBuffers and its own metadata. *)

(** {1 User partition} *)

val trampoline : region
(** The trampoline code pages that switch PKRU; mapped user-executable. *)

val function_slot : int -> region
(** [function_slot i] is the private region (code + heap + stack) of the
    [i]-th function instance of the workflow, [i >= 0].  Slots are
    disjoint from each other and from the system partition. *)

val function_slot_count : int
(** Maximum function instances per WFD. *)

val function_code : int -> region
val function_heap : int -> region
val function_stack : int -> region
(** Sub-regions of {!function_slot}. *)

val slot_of_addr : int -> int option
(** Which function slot (if any) an address falls into. *)

val in_system_partition : int -> bool
val in_user_partition : int -> bool
