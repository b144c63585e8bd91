open Sim
open Mem

exception Not_in_user_context

let in_system (thread : Wfd.thread) =
  Prot.equal_pkru thread.Wfd.pkru Wfd.system_pkru

let enter (wfd : Wfd.t) (thread : Wfd.thread) =
  if in_system thread then raise Not_in_user_context;
  (* The trampoline code runs in user context: fetching it must be
     permitted by the user rights (the pages are in the user
     partition). *)
  Address_space.check_exec wfd.Wfd.aspace ~pkru:thread.Wfd.pkru
    Layout.trampoline.Layout.base;
  Clock.advance thread.Wfd.clock Cost.trampoline_switch;
  wfd.Wfd.trampoline_crossings <- wfd.Wfd.trampoline_crossings + 1;
  thread.Wfd.pkru <- Wfd.system_pkru

let leave (thread : Wfd.thread) =
  thread.Wfd.pkru <- thread.Wfd.user_pkru;
  Clock.advance thread.Wfd.clock Cost.trampoline_switch

let enter_system wfd thread f =
  enter wfd thread;
  match f () with
  | result ->
      leave thread;
      result
  | exception e ->
      leave thread;
      raise e
