type fault_kind =
  | Unmapped
  | Perm_denied of Prot.access
  | Pkey_denied of Prot.access * Prot.key

exception Fault of { addr : int; kind : fault_kind }

(* Mapped ranges are tracked as regions; Page.t records materialise
   lazily on first touch.  [r_perm]/[r_pkey] are the creation defaults
   for pages in the region that have not materialised yet — once a page
   exists in [pages] it carries its own (possibly mprotect-ed) bits. *)
type region = {
  mutable r_first : int;  (* first vpn *)
  mutable r_last : int;  (* last vpn, inclusive *)
  r_perm : Page.perm;
  r_pkey : Prot.key;
}

type t = {
  pages : (int, Page.t) Hashtbl.t;  (* materialised pages only *)
  mutable regions : region list;
  mutable total_pages : int;
  mutable fault_handler : (int -> unit) option;
  mutable demand_faults : int;
  mutable accesses : int;
}

(* --- Page pool -----------------------------------------------------

   Materialised pages churn fast on the serving hot path: every
   AsBuffer transfer maps a multi-page region, touches it once and
   unmaps it, so without recycling each request allocates (and hands
   the GC) a fresh 4 KiB backing buffer per page.  Unmapped pages park
   on a per-domain freelist instead; acquire re-zeroes the backing
   (demand-zero semantics are observable through loads) and resets the
   metadata, so a recycled page is indistinguishable from a fresh one.
   Per-domain (DLS, no locks) because page churn is per-request work
   that stays on the worker domain that runs the request. *)

(* A stand-in page no lookup ever returns as a mapping: the filler of
   free pool slots, and [page_of_vpn]'s answer for an unmapped vpn. *)
let blank_page = Page.create ()

(* A LIFO stack in a growable array, so parking a page allocates
   nothing once the array has grown. *)
type page_pool = { mutable pp_items : Page.t array; mutable pp_len : int }

let page_pool_cap = 4096
let page_pool_key = Domain.DLS.new_key (fun () -> { pp_items = [||]; pp_len = 0 })

let acquire_page ~perm ~pkey =
  let pool = Domain.DLS.get page_pool_key in
  let n = pool.pp_len - 1 in
  if n < 0 then Page.create ~perm ~pkey ()
  else begin
    let p = pool.pp_items.(n) in
    pool.pp_items.(n) <- blank_page;
    pool.pp_len <- n;
    p.Page.perm <- perm;
    p.Page.pkey <- pkey;
    p.Page.populated <- false;
    (match p.Page.store with
    | Some b -> Bytes.fill b 0 Page.size '\000'
    | None -> ());
    p
  end

let release_page p =
  let pool = Domain.DLS.get page_pool_key in
  let n = pool.pp_len in
  if n < page_pool_cap then begin
    if n = Array.length pool.pp_items then begin
      let grown = Array.make (Stdlib.min page_pool_cap (Stdlib.max 64 (2 * n))) blank_page in
      Array.blit pool.pp_items 0 grown 0 n;
      pool.pp_items <- grown
    end;
    pool.pp_items.(n) <- p;
    pool.pp_len <- n + 1
  end

let create () =
  {
    pages = Hashtbl.create 64;
    regions = [];
    total_pages = 0;
    fault_handler = None;
    demand_faults = 0;
    accesses = 0;
  }

let fault addr kind = raise (Fault { addr; kind })

(* Rewind to the freshly-created empty state, reusing the page table.
   Deliberately counter-silent: destroying a space and creating a new
   one touches no global counter either, and recycled WFDs must be
   indistinguishable from destroy + create. *)
let recycle t =
  Hashtbl.iter (fun _ p -> release_page p) t.pages;
  Hashtbl.reset t.pages;
  t.regions <- [];
  t.total_pages <- 0;
  t.fault_handler <- None;
  t.demand_faults <- 0;
  t.accesses <- 0

(* The region holding a vpn, or [no_region] (which holds none). *)
let no_region = { r_first = 1; r_last = 0; r_perm = Page.rw; r_pkey = Prot.default_key }

let rec region_of vpn = function
  | [] -> no_region
  | r :: rest -> if vpn >= r.r_first && vpn <= r.r_last then r else region_of vpn rest

(* First mapped vpn in [first, last], in ascending order, considering
   every region — used to reproduce map's historical conflict report.
   -1 when the range is free. *)
let rec first_mapped_vpn_in ~first ~last best = function
  | [] -> best
  | r :: rest ->
      if r.r_last < first || r.r_first > last then first_mapped_vpn_in ~first ~last best rest
      else
        let v = Stdlib.max r.r_first first in
        first_mapped_vpn_in ~first ~last (if best >= 0 && best <= v then best else v) rest

let map t ~addr ~len ~perm ~pkey =
  if addr land (Page.size - 1) <> 0 then
    invalid_arg "Address_space.map: addr not page aligned";
  if len <= 0 then invalid_arg "Address_space.map: len must be positive";
  let first = Page.vpn_of_addr addr in
  let count = Page.count_for len in
  let last = first + count - 1 in
  let vpn = first_mapped_vpn_in ~first ~last (-1) t.regions in
  if vpn >= 0 then
    invalid_arg
      (Printf.sprintf "Address_space.map: page 0x%x already mapped" (Page.addr_of_vpn vpn));
  t.regions <- { r_first = first; r_last = last; r_perm = perm; r_pkey = pkey } :: t.regions;
  t.total_pages <- t.total_pages + count

(* Drop [first, last] from the region list, splitting regions it
   covers part of.  The list is rebuilt only up to the last region the
   range touches; the untouched tail is shared, so unmapping the most
   recent mapping allocates nothing. *)
let rec cut_regions t ~first ~last = function
  | [] -> []
  | r :: rest as regions ->
      let rest' = cut_regions t ~first ~last rest in
      if r.r_last < first || r.r_first > last then
        if rest' == rest then regions else r :: rest'
      else begin
        let inter_first = Stdlib.max r.r_first first in
        let inter_last = Stdlib.min r.r_last last in
        t.total_pages <- t.total_pages - (inter_last - inter_first + 1);
        let rest' =
          if r.r_last > inter_last then { r with r_first = inter_last + 1 } :: rest' else rest'
        in
        if r.r_first < inter_first then { r with r_last = inter_first - 1 } :: rest'
        else rest'
      end

let unmap t ~addr ~len =
  let first = Page.vpn_of_addr addr in
  let count = Page.count_for len in
  if count > 0 then begin
    let last = first + count - 1 in
    (* Drop materialised pages in range, probing vpn by vpn.  For
       ranges much larger than the materialised set (slot teardown:
       hundreds of thousands of vpns, a handful of touched pages) scan
       the table instead. *)
    if count <= Stdlib.max 64 (2 * Hashtbl.length t.pages) then
      for vpn = first to last do
        match Hashtbl.find t.pages vpn with
        | p ->
            Hashtbl.remove t.pages vpn;
            release_page p
        | exception Not_found -> ()
      done
    else begin
      let doomed =
        Hashtbl.fold
          (fun vpn p acc -> if vpn >= first && vpn <= last then (vpn, p) :: acc else acc)
          t.pages []
      in
      List.iter
        (fun (vpn, p) ->
          Hashtbl.remove t.pages vpn;
          release_page p)
        doomed
    end;
    t.regions <- cut_regions t ~first ~last t.regions
  end

let is_mapped t addr = region_of (Page.vpn_of_addr addr) t.regions != no_region

let page_count t = t.total_pages
let mapped_bytes t = t.total_pages * Page.size

(* The page backing a vpn, materialised on first touch, or
   [blank_page] when the vpn is unmapped. *)
let page_of_vpn t vpn =
  match Hashtbl.find t.pages vpn with
  | p -> p
  | exception Not_found ->
      let r = region_of vpn t.regions in
      if r == no_region then blank_page
      else begin
        let p = acquire_page ~perm:r.r_perm ~pkey:r.r_pkey in
        Hashtbl.replace t.pages vpn p;
        p
      end

let get_page t addr =
  let p = page_of_vpn t (Page.vpn_of_addr addr) in
  if p == blank_page then fault addr Unmapped else p

let iter_range t ~addr ~len f =
  if len > 0 then begin
    let first = Page.vpn_of_addr addr in
    let last = Page.vpn_of_addr (addr + len - 1) in
    for vpn = first to last do
      let p = page_of_vpn t vpn in
      if p == blank_page then fault (Page.addr_of_vpn vpn) Unmapped else f vpn p
    done
  end

let pkey_mprotect t ~addr ~len key =
  iter_range t ~addr ~len (fun _ p -> p.Page.pkey <- key)

let mprotect t ~addr ~len perm =
  iter_range t ~addr ~len (fun _ p -> p.Page.perm <- perm)

let key_of t addr = (get_page t addr).Page.pkey

let serve_demand_fault t addr page =
  if not page.Page.populated then
    match t.fault_handler with
    | Some handler ->
        t.demand_faults <- t.demand_faults + 1;
        handler addr;
        page.Page.populated <- true
    | None -> page.Page.populated <- true

(* Permission check for one page under a given PKRU. *)
let check_page addr page ~pkru access =
  let perm_ok =
    match access with
    | Prot.Read -> page.Page.perm.Page.read
    | Prot.Write -> page.Page.perm.Page.write
    | Prot.Execute -> page.Page.perm.Page.exec
  in
  if not perm_ok then fault addr (Perm_denied access);
  if not (Prot.access_allowed pkru page.Page.pkey access) then
    fault addr (Pkey_denied (access, page.Page.pkey))

(* The one access path: page lookup, permission + PKRU check,
   demand-zero service.  Only a successful access counts towards
   [accesses]; the page is populated when it returns. *)
let checked_page t ~pkru addr access =
  let page = get_page t addr in
  check_page addr page ~pkru access;
  serve_demand_fault t addr page;
  t.accesses <- t.accesses + 1;
  page

let load_byte t ~pkru addr =
  Bytes.get (Page.data (checked_page t ~pkru addr Prot.Read)) (Page.offset_of_addr addr)

let store_byte t ~pkru addr c =
  Bytes.set (Page.data (checked_page t ~pkru addr Prot.Write)) (Page.offset_of_addr addr) c

(* Walk a range page by page, calling [f page page_offset buf_offset n]
   for each contiguous chunk. *)
let walk t ~pkru ~access addr len f =
  let pos = ref addr and done_ = ref 0 in
  while !done_ < len do
    let page = checked_page t ~pkru !pos access in
    let off = Page.offset_of_addr !pos in
    let n = Stdlib.min (Page.size - off) (len - !done_) in
    f page off !done_ n;
    pos := !pos + n;
    done_ := !done_ + n
  done

let load_bytes t ~pkru addr len =
  let buf = Bytes.create len in
  walk t ~pkru ~access:Prot.Read addr len (fun page off boff n ->
      Bytes.blit (Page.data page) off buf boff n);
  buf

(* Traverse a readable range without materialising a copy: the page
   walk (permission checks, demand faults and access accounting) is
   identical to [load_bytes], only the destination buffer is gone.  For
   readers that already hold the bytes the range contains — an AsBuffer
   receiver, which takes the producer's bytes after this walk. *)
let touch_bytes t ~pkru addr len =
  walk t ~pkru ~access:Prot.Read addr len (fun _ _ _ _ -> ())

let store_bytes t ~pkru addr src =
  let len = Bytes.length src in
  walk t ~pkru ~access:Prot.Write addr len (fun page off boff n ->
      Bytes.blit src boff (Page.data page) off n)

let check_exec t ~pkru addr = ignore (checked_page t ~pkru addr Prot.Execute)

let set_fault_handler t h = t.fault_handler <- h

let populate_page t ~vpn data =
  let page = page_of_vpn t vpn in
  if page == blank_page then fault (Page.addr_of_vpn vpn) Unmapped;
  let n = Stdlib.min (Bytes.length data) Page.size in
  Bytes.blit data 0 (Page.data page) 0 n;
  page.Page.populated <- true

let touched_fault_count t = t.demand_faults

let access_count t = t.accesses
