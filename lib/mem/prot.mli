(** Memory Protection Keys (MPK) model.

    Mirrors Intel MPK semantics: 16 protection keys; each mapped page is
    tagged with one key; each hardware thread carries a PKRU register with
    two bits per key — access-disable (AD) and write-disable (WD).  A data
    access is allowed only if the page's key is not access-disabled (and,
    for writes, not write-disabled) in the current thread's PKRU.

    Key 0 is the default key; like on real hardware we treat it as the
    "system" key owned by as-visor / as-libos. *)

type key = private int
(** A protection key, 0..15. *)

val default_key : key
(** Key 0 — assigned to pages whose key was never changed. *)

val key_of_int : int -> key
(** Raises [Invalid_argument] outside 0..15. *)

val key_to_int : key -> int

type pkru
(** Value of the PKRU register: a 32-bit rights word, held unboxed in
    an immediate [int] (bits 0..31), so building, copying and
    comparing rights words allocates nothing. *)

val pkru_allow_all : pkru
(** All keys readable and writable (PKRU = 0). *)

val pkru_deny_all_except : key list -> pkru
(** Rights word granting full access to the listed keys and no access to
    every other key.  This is how a trampoline builds the user-context or
    system-context PKRU. *)

val allow : pkru -> key -> pkru
(** Grant read+write for a key. *)

val deny : pkru -> key -> pkru
(** Remove all access for a key (set AD). *)

val deny_write : pkru -> key -> pkru
(** Make a key read-only (set WD, clear AD). *)

val can_read : pkru -> key -> bool
val can_write : pkru -> key -> bool

val to_int32 : pkru -> int32
(** The register value: deny-all is [-1l]. *)

val equal_pkru : pkru -> pkru -> bool

type access = Read | Write | Execute

val access_allowed : pkru -> key -> access -> bool
(** MPK does not police instruction fetches: [Execute] is always allowed
    by PKRU (page permissions handle it). *)
