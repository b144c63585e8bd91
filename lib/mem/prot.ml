type key = int

let default_key = 0

let key_of_int i =
  if i < 0 || i > 15 then invalid_arg "Prot.key_of_int: key must be in 0..15";
  i

let key_to_int k = k

(* PKRU layout: bits (2k) = AD (access disable), (2k+1) = WD (write
   disable) for key k, matching the Intel SDM. *)
type pkru = int32

let pkru_allow_all = 0l

let ad_bit k = Int32.shift_left 1l (2 * k)
let wd_bit k = Int32.shift_left 1l ((2 * k) + 1)

let deny p k = Int32.logor p (Int32.logor (ad_bit k) (wd_bit k))

let allow p k =
  Int32.logand p (Int32.lognot (Int32.logor (ad_bit k) (wd_bit k)))

let deny_write p k = Int32.logor (allow p k) (wd_bit k)

let pkru_deny_all_except keys =
  let all_denied =
    List.fold_left (fun p k -> deny p k) pkru_allow_all (List.init 16 Fun.id)
  in
  List.fold_left allow all_denied keys

let can_read p k = Int32.logand p (ad_bit k) = 0l

let can_write p k =
  Int32.logand p (Int32.logor (ad_bit k) (wd_bit k)) = 0l

let to_int32 p = p
let[@inline] bits p = Int32.to_int p

let equal_pkru = Int32.equal

type access = Read | Write | Execute

let access_allowed p k = function
  | Read -> can_read p k
  | Write -> can_write p k
  | Execute -> true
