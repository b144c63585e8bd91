type pid = int
type tid = int

type thread = { tid : tid; clock : Sim.Clock.t }

(* [others_rev] holds the cloned threads newest first, so a clone is
   an O(1) cons; {!threads} restores creation order. *)
type proc = {
  name : string;
  main : thread;
  mutable others_rev : thread list;
  mutable rss : int;
}

(* [total] is the sum of every live process's [rss], kept in step by
   each charge, release and exit, so {!total_rss} is a field read. *)
type t = {
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : pid;
  mutable next_tid : tid;
  mutable total : int;
}

let create_table () = { procs = Hashtbl.create 16; next_pid = 1; next_tid = 1; total = 0 }

let reset_table t =
  Hashtbl.reset t.procs;
  t.next_pid <- 1;
  t.next_tid <- 1;
  t.total <- 0

(* Per-domain freelist of recycled tables: serving allocates one table
   per trajectory attempt, and acquire/release happen on the same
   worker domain, so the freelist needs no locks.  Tables are scrubbed
   on release ([reset_table]), so an acquired table is observationally
   a fresh one — same pids, tids and (empty) process set. *)
type table_pool = { mutable tp_items : t list; mutable tp_len : int }

let table_pool_cap = 64

let table_pool_key : table_pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tp_items = []; tp_len = 0 })

let acquire_table () =
  let tp = Domain.DLS.get table_pool_key in
  match tp.tp_items with
  | t :: rest ->
      tp.tp_items <- rest;
      tp.tp_len <- tp.tp_len - 1;
      t
  | [] -> create_table ()

let release_table t =
  reset_table t;
  let tp = Domain.DLS.get table_pool_key in
  if tp.tp_len < table_pool_cap then begin
    tp.tp_items <- t :: tp.tp_items;
    tp.tp_len <- tp.tp_len + 1
  end

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

let spawn_process t ?(at = Sim.Units.zero) ~name () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let main = { tid = fresh_tid t; clock = Sim.Clock.create ~at () } in
  Hashtbl.replace t.procs pid { name; main; others_rev = []; rss = 0 };
  pid

let find t pid =
  match Hashtbl.find t.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg (Printf.sprintf "Process: unknown pid %d" pid)

let clone_thread t pid =
  let p = find t pid in
  Sim.Clock.advance p.main.clock (Syscall.cost Syscall.Clone);
  let th = { tid = fresh_tid t; clock = Sim.Clock.copy p.main.clock } in
  p.others_rev <- th :: p.others_rev;
  th

let main_thread t pid = (find t pid).main

let threads t pid =
  let p = find t pid in
  p.main :: List.rev p.others_rev

let thread_count t pid = 1 + List.length (find t pid).others_rev

let charge_rss t pid n =
  let p = find t pid in
  p.rss <- p.rss + n;
  t.total <- t.total + n

let release_rss t pid n =
  let p = find t pid in
  let rss = Stdlib.max 0 (p.rss - n) in
  t.total <- t.total - (p.rss - rss);
  p.rss <- rss

let rss t pid = (find t pid).rss

let total_rss t = t.total

let exit_process t pid =
  match Hashtbl.find t.procs pid with
  | p ->
      t.total <- t.total - p.rss;
      Hashtbl.remove t.procs pid
  | exception Not_found -> ()

let live_processes t = Hashtbl.length t.procs
