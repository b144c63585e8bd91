(* Classic universal-type extension map: each key owns an injection /
   projection pair over an extensible variant. *)

type binding = ..

(* [project] raises [Not_found] on another key's binding, so a lookup
   allocates no option on the way. *)
type 'a key = {
  uid : int;
  name : string;
  inject : 'a -> binding;
  project : binding -> 'a;
}

type t = (int, binding) Hashtbl.t

let next_uid = ref 0

let create () = Hashtbl.create 8

let new_key (type a) name : a key =
  let module M = struct
    type binding += B of a
  end in
  incr next_uid;
  {
    uid = !next_uid;
    name;
    inject = (fun v -> M.B v);
    project = (function M.B v -> v | _ -> raise Not_found);
  }

let set t key v = Hashtbl.replace t key.uid (key.inject v)

let find t key = key.project (Hashtbl.find t key.uid)

let get t key = match find t key with v -> Some v | exception Not_found -> None

let get_exn t key =
  match find t key with
  | v -> v
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Ext.get_exn: no binding for %s" key.name)

let mem t key = Hashtbl.mem t key.uid

let remove t key = Hashtbl.remove t key.uid

let clear t = Hashtbl.reset t
