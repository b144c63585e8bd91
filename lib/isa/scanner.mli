(** Blacklist instruction scanner (the objdump/Dyninst/E9Tool step of
    the paper's threat model, §6).

    Scans the raw byte stream of an image for occurrences of the
    forbidden opcodes: [wrpkru] (0f 01 ef), [syscall] (0f 05),
    [sysenter] (0f 34) and [int imm8] (cd xx).  An occurrence that
    starts exactly on an instruction boundary is an *intentional* use;
    one that straddles boundaries (e.g. bytes of an immediate combining
    with the next opcode) is a *false positive* that ERIM-style binary
    rewriting can eliminate. *)

type opcode = Op_wrpkru | Op_syscall | Op_sysenter | Op_int

type occurrence = {
  opcode : opcode;
  offset : int;  (** Byte offset in the image code. *)
  aligned : bool;  (** Starts on an instruction boundary. *)
}

val scan : Image.t -> occurrence list
(** All occurrences, offset-ordered. *)

type verdict =
  | Clean
  | Rewritable of occurrence list  (** Only unaligned occurrences. *)
  | Rejected of occurrence list  (** Contains intentional forbidden instructions. *)

val verdict : Image.t -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
