type key = int

let default_key = 0

let key_of_int i =
  if i < 0 || i > 15 then invalid_arg "Prot.key_of_int: key must be in 0..15";
  i

let key_to_int k = k

(* PKRU layout: bits (2k) = AD (access disable), (2k+1) = WD (write
   disable) for key k, matching the Intel SDM.  The 32-bit word lives
   in the low bits of an immediate [int], so building and testing a
   rights word never boxes. *)
type pkru = int

let pkru_allow_all = 0
let pkru_deny_all = 0xFFFF_FFFF

let[@inline] ad_bit k = 1 lsl (2 * k)
let[@inline] wd_bit k = 1 lsl ((2 * k) + 1)

let deny p k = p lor ad_bit k lor wd_bit k
let allow p k = p land lnot (ad_bit k lor wd_bit k)
let deny_write p k = allow p k lor wd_bit k

let pkru_deny_all_except keys = List.fold_left allow pkru_deny_all keys

let can_read p k = p land ad_bit k = 0
let can_write p k = p land (ad_bit k lor wd_bit k) = 0

let to_int32 p = Int32.of_int p

let equal_pkru = Int.equal

type access = Read | Write | Execute

let access_allowed p k = function
  | Read -> can_read p k
  | Write -> can_write p k
  | Execute -> true
