(** Simulated 4 KiB pages with permissions and a protection key. *)

val size : int
(** Page size in bytes (4096). *)

val shift : int
(** log2 of {!size}. *)

type perm = { read : bool; write : bool; exec : bool }

val rw : perm
val ro : perm
val rx : perm

type t = {
  mutable store : Bytes.t option;
      (** Demand-zero backing: materialised by {!data} on first use. *)
  mutable perm : perm;
  mutable pkey : Prot.key;
  mutable populated : bool;
      (** False until first touched; used by the demand-paging backend. *)
}

val create : ?perm:perm -> ?pkey:Prot.key -> unit -> t
(** Fresh zeroed page, default permissions [rw], default key 0.  The
    4 KiB backing buffer is allocated lazily on the first {!data}
    access. *)

val data : t -> Bytes.t
(** The page's backing bytes (always {!size} long), materialising the
    demand-zero page if needed. *)

val vpn_of_addr : int -> int
(** Virtual page number containing an address. *)

val offset_of_addr : int -> int
val addr_of_vpn : int -> int

val align_up : int -> int
(** Round an address/length up to the next page boundary. *)

val align_down : int -> int

val count_for : int -> int
(** Number of pages needed to hold [len] bytes (at least 1 for len>0). *)
