type level = { size_kib : int; ways : int }

type t = {
  line : int;
  l1d : level;
  l2 : level;
  l3 : level;
  l3_slices : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_l3 : int;
  lat_dram : int;
  clock_ghz : float;
}

let xeon_e5_2667v2 =
  {
    line = 64;
    l1d = { size_kib = 32; ways = 8 };
    l2 = { size_kib = 256; ways = 8 };
    l3 = { size_kib = 25600; ways = 20 };
    l3_slices = 8;
    lat_l1 = 4;
    lat_l2 = 12;
    lat_l3 = 40;
    lat_dram = 290;
    clock_ghz = 3.3;
  }

let op_cycles weight = max 1 (weight * 3 / 5)

let sets t level = level.size_kib * 1024 / t.line / level.ways
let l3_sets_per_slice t = sets t t.l3 / t.l3_slices
let l3_assoc t = t.l3.ways
