(* Tests for Pgrid_prng: generator determinism and sampler statistics. *)

module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let close ?(eps = 1e-9) msg a b = Alcotest.check (Alcotest.float eps) msg a b

let stream seed n =
  let rng = Rng.create ~seed in
  List.init n (fun _ -> Rng.bits64 rng)

(* Reference outputs captured from the record-based generator that the
   byte-backed state replaced: the stream must never change, because
   every seeded figure and baseline in the repository depends on it. *)
type reference = {
  seed : int;
  bits64 : int64 list;
  ints : (int * int list) list;  (* bound, first 32 draws *)
  floats : float list;
  bools : string;
  shuffled : int list;  (* Array.init 32 Fun.id after one shuffle *)
  split_child : int64 list;
  split_parent : int64;  (* the parent's next output after the split *)
}

[@@@ocamlformat "disable"]
let reference =
  [
    {
      seed = 0;
      bits64 =
        [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL; 0x02eebf8c3bbe5e1aL; 0x7eca04ebaf4a5eeaL; 0x0543c37757f08d9aL; 0xdb7490c75ab5026eL; 0xd87343e6464bc959L; 0x4b7da0a02389f0ffL; 0x1300fc58c0424c16L; 0x5084843206c19968L; 0x10ea073de9aa4dfcL; 0x1aae554343960cc1L; 0x1804139f10fae720L; 0x10d790e7b8ac10faL; 0x667d2bffdd1496f7L; 0xa04620d3d0fc04a8L; 0x1d50881230af9cc3L; 0x53be287ded35f698L; 0x673235793f7908e1L; 0x46e91feb4535fbdcL; 0x216c1524cbac57c0L; 0x0a53eb08063a44dfL; 0x45f965b948778197L; 0x6f2fa9d01ba03887L; 0x60c57eba69ed4e15L; 0x22c65ce977dd39cbL; 0xa5d1ce0c5a7c6abfL; 0xe8e26337cde13268L; 0x0b4a575fdb6f8160L; 0x400feb0bae786424L; 0x633e0b621080bf50L ];
      ints =
        [
          (1, [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
          (2, [ 1; 1; 1; 0; 0; 0; 1; 0; 1; 1; 0; 1; 0; 0; 0; 1; 0; 0; 0; 0; 1; 0; 1; 1; 1; 1; 0; 1; 0; 0; 1; 0 ]);
          (3, [ 1; 2; 2; 2; 2; 1; 2; 0; 0; 2; 1; 2; 0; 2; 0; 0; 1; 1; 1; 2; 2; 0; 1; 0; 2; 0; 0; 2; 2; 2; 2; 2 ]);
          (7, [ 1; 6; 2; 6; 3; 6; 5; 2; 0; 0; 6; 5; 2; 0; 6; 0; 0; 5; 1; 5; 2; 2; 0; 1; 4; 6; 3; 4; 0; 2; 6; 2 ]);
          (40, [ 1; 6; 38; 27; 22; 5; 26; 8; 38; 37; 33; 5; 26; 24; 9; 20; 38; 4; 16; 10; 18; 25; 28; 0; 13; 33; 39; 17; 32; 5; 33; 31 ]);
          (1000, [ 247; 321; 767; 902; 954; 870; 155; 598; 63; 773; 602; 895; 816; 456; 62; 445; 298; 816; 422; 568; 759; 496; 311; 101; 545; 901; 626; 687; 154; 88; 265; 980 ]);
          (1073741824, [ 306366711; 820000065; 992386815; 250582918; 735221690; 368845670; 380453019; 294842966; 149060671; 806392581; 28337754; 980063103; 283476784; 71219656; 774571070; 927278525; 876544298; 204203824; 994934182; 266224184; 290291447; 854267376; 26120503; 303947877; 115871265; 444289925; 502746738; 379525807; 863521946; 920379480; 731781385; 69218260 ]);
        ];
      floats =
        [ 0x1.4c5d7585242c8p-2; 0x1.8769bcf70e034p-2; 0x1.703f7e47b269ep-2; 0x1.775fc61ddf2cp-7; 0x1.fb2813aebd296p-2; 0x1.50f0ddd5fc22p-6; 0x1.b6e9218eb56ap-1; 0x1.b0e687cc8c979p-1; 0x1.2df682808e27cp-2; 0x1.300fc58c04248p-4; 0x1.421210c81b066p-2; 0x1.0ea073de9aa48p-4; 0x1.aae5543439608p-4; 0x1.804139f10faep-4; 0x1.0d790e7b8ac1p-4; 0x1.99f4afff74524p-2; 0x1.408c41a7a1f8p-1; 0x1.d50881230af98p-4; 0x1.4ef8a1f7b4d7cp-2; 0x1.9cc8d5e4fde42p-2; 0x1.1ba47fad14d7ep-2; 0x1.0b60a9265d628p-3; 0x1.4a7d6100c748p-5; 0x1.17e596e521dep-2; 0x1.bcbea7406e80ep-2; 0x1.8315fae9a7b52p-2; 0x1.1632e74bbee9cp-3; 0x1.4ba39c18b4f8dp-1; 0x1.d1c4c66f9bc26p-1; 0x1.694aebfb6dfp-5; 0x1.003fac2eb9e18p-2; 0x1.8cf82d884202ep-2 ];
      bools = "11000001100010010101001111110000";
      shuffled = [ 12; 7; 17; 13; 19; 14; 15; 0; 11; 3; 20; 4; 9; 31; 28; 2; 18; 30; 25; 21; 27; 24; 10; 8; 16; 5; 22; 29; 26; 6; 1; 23 ];
      split_child =
        [ 0xe5489e9f4033f525L; 0xcf57807f5caa4422L; 0x65baa5f372c12edeL; 0xd98a2b54e4c05814L; 0x260e4d428030b5c0L; 0xad6b15470b324d12L; 0xac954389cf199197L; 0xa4d2e3625aa627a2L; 0x0097c349c6a982bbL; 0xc486708650e5e21aL; 0x75a9c439276931fcL; 0xebc68a251a738c80L; 0x0b4488308d428462L; 0x4f3101bdf5482755L; 0x2c1ee7057fe220dbL; 0x7698c810be341850L; 0x03d54b902c20737bL; 0xf3123ed6ba8c5cc1L; 0x09466b39a6987277L; 0x9d63122300563315L; 0xb9554989d61760ddL; 0x1acd1632f5d565c1L; 0xffcfacc8ecb4654eL; 0x71ddf7a8824482c2L; 0xe051114d0fde7efaL; 0x898053f910b069a5L; 0x48ae656e48f709d7L; 0x70c16c110ca1c8ecL; 0x9da397eec486d651L; 0xa715db525b5191b9L; 0x275e530e0982db8eL; 0xa0d5daaabd65b65bL ];
      split_parent = 0x61da6f3dc380d507L;
    };
    {
      seed = 1;
      bits64 =
        [ 0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L; 0xbf08119f05cd56d6L; 0x2f47184b86186fa4L; 0x97299fcae7202345L; 0xfca3c79508f41507L; 0x85fea5c90363f221L; 0x18bae5b30d334bd0L; 0x226113c9f026ec16L; 0xeb9e0ef9dccfe649L; 0x57efaedd9f6cffb3L; 0x128ae2d5697640d6L; 0x65033a4eee505049L; 0x16e9453ed54a88baL; 0x28065aa8f428a8bbL; 0x8ea047165f041da2L; 0x791032d9a4f72ef3L; 0xf53882542839ed9eL; 0xa46adeb140800f4aL; 0x439401c53ed0d70bL; 0xcb3fb2f0cfd1060aL; 0x28a2232958e06eebL; 0x69d8ec3a36a7ffa4L; 0x3cd9741a15d0a26bL; 0x9a4ebf2d376dba70L; 0x2f27c4c8cc76f56aL; 0xfb68dacb355a2892L; 0x9c77729184aa08f8L; 0xbae7a269e5248e36L; 0x97f3078dc02e78afL; 0xa646c7e95f6ed1dfL ];
      ints =
        [
          (1, [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
          (2, [ 0; 1; 0; 1; 1; 1; 1; 0; 0; 1; 0; 0; 1; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 1; 0; 0; 0; 0; 0; 1; 1; 1 ]);
          (3, [ 2; 0; 1; 1; 1; 1; 0; 0; 1; 2; 0; 1; 2; 2; 2; 0; 0; 2; 2; 2; 2; 1; 2; 0; 2; 0; 2; 1; 1; 1; 0; 2 ]);
          (7, [ 6; 3; 0; 5; 1; 1; 1; 0; 4; 5; 2; 4; 5; 2; 6; 6; 0; 4; 2; 2; 2; 2; 1; 2; 4; 2; 4; 6; 5; 3; 5; 5 ]);
          (40, [ 38; 35; 8; 17; 1; 8; 5; 18; 18; 39; 18; 2; 2; 26; 28; 26; 36; 13; 29; 13; 28; 25; 3; 32; 16; 33; 13; 3; 20; 15; 4; 26 ]);
          (1000, [ 166; 35; 328; 437; 209; 321; 136; 756; 773; 402; 53; 18; 558; 558; 872; 956; 871; 978; 450; 386; 954; 154; 668; 346; 548; 574; 909; 555; 119; 413; 383; 333 ]);
          (1073741824, [ 465629350; 630192163; 367705416; 24335797; 562437097; 969410769; 37553473; 14220424; 55366388; 1007270661; 926153106; 668680172; 442339381; 999560210; 894607918; 1024076334; 398526312; 691915708; 168721255; 270533586; 263468482; 871645570; 372775866; 229244905; 91498650; 232484508; 857587034; 223775268; 556433982; 961094541; 806067755; 400274551 ]);
        ];
      floats =
        [ 0x1.9f8ba0fede078p-1; 0x1.7e8482652c7fcp-1; 0x1.9a37d5757aafp-4; 0x1.7e10233e0b9aap-1; 0x1.7a38c25c30c34p-3; 0x1.2e533f95ce404p-1; 0x1.f9478f2a11e82p-1; 0x1.0bfd4b9206c7ep-1; 0x1.8bae5b30d3348p-4; 0x1.13089e4f81374p-3; 0x1.d73c1df3b99fcp-1; 0x1.5fbebb767db3ep-2; 0x1.28ae2d569764p-4; 0x1.940ce93bb9414p-2; 0x1.6e9453ed54a88p-4; 0x1.4032d547a1454p-3; 0x1.1d408e2cbe083p-1; 0x1.e440cb6693dcap-2; 0x1.ea7104a85073dp-1; 0x1.48d5bd6281001p-1; 0x1.0e500714fb434p-2; 0x1.967f65e19fa2p-1; 0x1.4511194ac7034p-3; 0x1.a763b0e8da9fep-2; 0x1.e6cba0d0ae85p-3; 0x1.349d7e5a6edb7p-1; 0x1.793e264663b78p-3; 0x1.f6d1b5966ab45p-1; 0x1.38eee52309541p-1; 0x1.75cf44d3ca491p-1; 0x1.2fe60f1b805cfp-1; 0x1.4c8d8fd2beddap-1 ];
      bools = "11000111001101010100101010000011";
      shuffled = [ 0; 25; 11; 26; 16; 30; 22; 31; 4; 27; 10; 15; 13; 2; 7; 23; 24; 19; 14; 28; 12; 18; 5; 20; 29; 1; 17; 9; 21; 8; 3; 6 ];
      split_child =
        [ 0x25faf2f0b1e9fa8fL; 0x16d8b03d2788bbceL; 0xe022c87d81f0daffL; 0xea60241ba246e408L; 0x5845cd0851d7acccL; 0x850997acdc189ec8L; 0x2bb28bff5ff16d1cL; 0xbfa05fa2acfcdcf0L; 0xc7d926ee43fee85aL; 0xdce1c4cf75cbc260L; 0x089cf0b958f11a96L; 0x94fc1d63ab789fffL; 0xad4dcab7ba08e8faL; 0xce958490f1ba6129L; 0x6a4550520ffa4b2dL; 0x8b1d3e3ed0be1337L; 0xb56bc1ad171baa16L; 0x139ec1534a48a77cL; 0x395562ced523585bL; 0x4c979019420208cdL; 0xe3c548be56c434d3L; 0x7cc4d8d59336ee1fL; 0x4124195be6b324d6L; 0xeb2347664499522dL; 0xc1a1caa1d3aae1c3L; 0x1f2641a1e0add4a2L; 0x3f5bc1640be08197L; 0x900612e415608da8L; 0x26c2a00619d243eeL; 0x6d2aa84c1ad9b7d4L; 0x7d2151ed8aca8728L; 0x0e41cf0339d21754L ];
      split_parent = 0xbf424132963fe08dL;
    };
    {
      seed = 42;
      bits64 =
        [ 0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L; 0xcb231c3874846a73L; 0x968d9f004e50de7dL; 0x201718ff221a3556L; 0x9ae94e070ed8cb46L; 0x352cf3daf095ccc7L; 0xeeefd63219b4a0d4L; 0x8f3dfa98020e7942L; 0xd99b8e00792f360dL; 0xae14e77054359b98L; 0x11ccbfbb36590dbdL; 0x672fcfd4efd0e0bdL; 0x8bc6e858d0501168L; 0x367abb657f468b2eL; 0x0ce254eaf1b0177eL; 0x939e7abb81f5d5fcL; 0x7784cb89e2481d7bL; 0x296566311008aaa4L; 0xdcda5b94829765e3L; 0xa70de5b169e02435L; 0x8686e981e604aa1cL; 0xd0dafde236ba2593L; 0x24896b7216d2d83cL; 0x6d172ed3e81a7e8cL; 0xf2eda4bfdf254cbbL; 0x85ff42c6c6703f37L; 0xdf321e3788bd2cebL; 0x15a0b07d583a481fL; 0xa318445d13be8320L ];
      ints =
        [
          (1, [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
          (2, [ 1; 0; 1; 0; 0; 1; 1; 1; 1; 1; 0; 1; 0; 1; 1; 0; 1; 1; 1; 0; 1; 0; 1; 1; 0; 1; 1; 0; 1; 0; 1; 0 ]);
          (3, [ 0; 2; 0; 1; 1; 1; 1; 0; 2; 2; 2; 1; 0; 1; 0; 2; 1; 2; 0; 2; 1; 2; 1; 0; 1; 0; 1; 0; 2; 2; 2; 0 ]);
          (7, [ 4; 3; 6; 4; 5; 1; 1; 5; 0; 3; 6; 2; 3; 6; 1; 0; 5; 4; 3; 6; 5; 2; 0; 6; 1; 6; 3; 5; 4; 5; 4; 5 ]);
          (40, [ 39; 36; 35; 28; 31; 21; 17; 16; 3; 38; 26; 11; 31; 30; 13; 7; 36; 15; 35; 13; 7; 8; 14; 1; 6; 3; 20; 37; 15; 15; 7; 28 ]);
          (1000, [ 551; 484; 867; 366; 668; 927; 341; 721; 817; 53; 592; 387; 742; 879; 47; 90; 715; 479; 383; 862; 681; 376; 269; 647; 356; 527; 931; 814; 973; 826; 519; 200 ]);
          (1073741824, [ 287152679; 366726628; 50936675; 53874030; 488708764; 328480671; 143035733; 62272209; 1009087281; 107817013; 8625744; 508284291; 353199846; 227951471; 1005860911; 873727066; 533832395; 1013712351; 545092991; 949094238; 67250857; 547740024; 444074253; 964766343; 229542244; 95729167; 973512611; 935940910; 832311245; 573524794; 370053639; 82813128 ]);
        ];
      floats =
        [ 0x1.a0ec9a9e88ecdp-1; 0x1.467905d15dbccp-2; 0x1.f7c0f9f61849dp-1; 0x1.66fb3ec019b06p-1; 0x1.96463870e908dp-1; 0x1.2d1b3e009ca1bp-1; 0x1.00b8c7f910d18p-3; 0x1.35d29c0e1db19p-1; 0x1.a9679ed784ae4p-3; 0x1.dddfac6433694p-1; 0x1.1e7bf530041cfp-1; 0x1.b3371c00f25e6p-1; 0x1.5c29cee0a86b3p-1; 0x1.1ccbfbb365908p-4; 0x1.9cbf3f53bf438p-2; 0x1.178dd0b1a0a02p-1; 0x1.b3d5db2bfa344p-3; 0x1.9c4a9d5e3602p-5; 0x1.273cf57703ebap-1; 0x1.de132e2789206p-2; 0x1.4b2b318880454p-3; 0x1.b9b4b729052ecp-1; 0x1.4e1bcb62d3c04p-1; 0x1.0d0dd303cc095p-1; 0x1.a1b5fbc46d744p-1; 0x1.244b5b90b696cp-3; 0x1.b45cbb4fa069ep-2; 0x1.e5db497fbe4a9p-1; 0x1.0bfe858d8ce07p-1; 0x1.be643c6f117a5p-1; 0x1.5a0b07d583a48p-4; 0x1.463088ba277dp-1 ];
      bools = "11001100100101100001011010011110";
      shuffled = [ 18; 2; 0; 25; 12; 28; 5; 23; 24; 1; 8; 19; 10; 22; 30; 31; 13; 9; 11; 20; 15; 6; 29; 16; 27; 26; 17; 21; 14; 3; 4; 7 ];
      split_child =
        [ 0x4fbbc8a5d7ee027bL; 0xcbf580142f9eed0fL; 0xe792208c7d75e47dL; 0x8295db570be22203L; 0x5f54853fcda76513L; 0x1283ba7b2ac3b933L; 0x96f4d36a26a239c6L; 0xca4124950cf55325L; 0x82708287b03812b3L; 0x90eb57de712a5283L; 0x640082d83137cc25L; 0xa37375fdafdaf526L; 0x12c8544ef461d88aL; 0x901c71d85e3fcb8fL; 0xd5cf9f525fc07d5bL; 0xf788e8fbb16f8090L; 0xa12044001d3830d1L; 0x77a676795c87c565L; 0x147c7466b5a2e713L; 0xb53d92c95a0ca6beL; 0x8bc5be742b825821L; 0x7df3880a3fb90682L; 0x2b0a671fab444f3cL; 0xde73f143ee8482b0L; 0x2eacd023e317e72bL; 0x6fd7ce4c13ef3e66L; 0xcf89bf63e8577d32L; 0xc5daa2d03b964f23L; 0xef17a61ffd79fb49L; 0x0afe7877cf165c80L; 0x6f45c91f061ce701L; 0xdeb082757fdd5cc2L ];
      split_parent = 0x519e4174576f3791L;
    };
    {
      seed = 20050830;
      bits64 =
        [ 0xffd65d17716314f6L; 0x5b8889543f55f893L; 0x227b41970f30c6cbL; 0x0e42ee8f69b70997L; 0x98702fec27f7a273L; 0x59967e69eea9101eL; 0x444fe8ef4862579aL; 0x80682c66af3daf79L; 0x20f880bff457e0deL; 0x73c02b893b0af92bL; 0xfbf281264ee10667L; 0x56ea86cb475cf7cfL; 0x06ba87fa46a271ddL; 0xe514ef049e47f137L; 0x6844c57a03d3b502L; 0xfcbefae21f8b83e9L; 0xb2c504b25953a672L; 0x78b2d234915e9aa5L; 0xd344f13853d769d5L; 0x82f4837e1749ecd8L; 0xad2657357b7995bbL; 0xe197ff2c93fb02eaL; 0x1c9ad6a361b0d517L; 0xcb7d9e56711f5298L; 0x6bac2b8fd00563cfL; 0x30881e1abc18e732L; 0x860d67205aaa4248L; 0xcb5660daf2dc9ee3L; 0x0e8a30b3c4f6a2cdL; 0xe2ca2bd5ce60e70eL; 0x11e6f494e0cd8bb5L; 0x5f182007a6545110L ];
      ints =
        [
          (1, [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
          (2, [ 1; 0; 0; 1; 0; 1; 0; 0; 1; 0; 1; 1; 1; 1; 0; 0; 0; 1; 1; 0; 0; 0; 1; 0; 1; 0; 0; 0; 1; 1; 1; 0 ]);
          (3, [ 1; 0; 2; 1; 0; 2; 2; 2; 1; 1; 0; 2; 0; 1; 1; 2; 2; 2; 1; 2; 0; 2; 0; 1; 0; 0; 2; 2; 0; 0; 2; 1 ]);
          (7, [ 5; 4; 2; 5; 4; 6; 6; 2; 1; 3; 5; 0; 2; 4; 1; 5; 6; 6; 2; 5; 6; 3; 4; 2; 0; 3; 3; 5; 4; 0; 2; 3 ]);
          (40, [ 36; 37; 28; 7; 38; 30; 10; 25; 13; 0; 28; 5; 38; 12; 18; 3; 4; 15; 39; 2; 3; 19; 15; 4; 35; 16; 36; 4; 28; 17; 32; 2 ]);
          (1000, [ 317; 548; 434; 613; 156; 7; 486; 990; 55; 586; 409; 499; 119; 77; 320; 250; 412; 681; 629; 822; 366; 186; 325; 166; 243; 460; 146; 952; 179; 451; 749; 68 ]);
          (1073741824, [ 475579709; 265649700; 63713714; 443400805; 167635100; 1001014279; 303601126; 735013854; 1024849975; 247643722; 330842521; 299318771; 296262775; 663878733; 16051520; 132309242; 374663580; 609724073; 351656565; 97680182; 517891438; 620675258; 409744709; 474469542; 872503539; 788937164; 380276882; 1018636216; 826124467; 865614275; 942891757; 697635908 ]);
        ];
      floats =
        [ 0x1.ffacba2ee2c62p-1; 0x1.6e222550fd57ep-2; 0x1.13da0cb87986p-3; 0x1.c85dd1ed36e1p-5; 0x1.30e05fd84fef4p-1; 0x1.6659f9a7baa44p-2; 0x1.113fa3bd21894p-2; 0x1.00d058cd5e7b5p-1; 0x1.07c405ffa2bfp-3; 0x1.cf00ae24ec2bep-2; 0x1.f7e5024c9dc2p-1; 0x1.5baa1b2d1d73cp-2; 0x1.aea1fe91a89cp-6; 0x1.ca29de093c8fep-1; 0x1.a11315e80f4ecp-2; 0x1.f97df5c43f17p-1; 0x1.658a0964b2a74p-1; 0x1.e2cb48d2457a6p-2; 0x1.a689e270a7aedp-1; 0x1.05e906fc2e93dp-1; 0x1.5a4cae6af6f32p-1; 0x1.c32ffe5927f6p-1; 0x1.c9ad6a361b0dp-4; 0x1.96fb3cace23eap-1; 0x1.aeb0ae3f40158p-2; 0x1.8440f0d5e0c7p-3; 0x1.0c1ace40b5548p-1; 0x1.96acc1b5e5b93p-1; 0x1.d14616789ed4p-5; 0x1.c59457ab9cc1cp-1; 0x1.1e6f494e0cd88p-4; 0x1.7c60801e99514p-2 ];
      bools = "01111001011111010110101010011010";
      shuffled = [ 1; 31; 11; 17; 24; 25; 20; 16; 15; 27; 21; 30; 22; 3; 8; 2; 12; 26; 28; 14; 9; 0; 13; 19; 10; 23; 6; 7; 5; 18; 4; 29 ];
      split_child =
        [ 0x295528379fa5fa55L; 0x4150ac6ece64ea5cL; 0xf1b2a89ece50ebbcL; 0x0795d0ca091139feL; 0x5f5827f459a6191dL; 0x6028c2738923ea2fL; 0x54e5780f0c415118L; 0xa076f7ba9769a0cdL; 0xde71573dbcab474cL; 0xcdc5ac9e69251cdeL; 0x5f2a1cf193d6c57eL; 0x819bb29b626f9c22L; 0x2007d056a0a4cf6cL; 0x4eaa2f4516b6a9dfL; 0x2ec848596120dd01L; 0xaa99a156ae14a5c4L; 0x2f6debaa25fff69aL; 0xacf2867ee9495296L; 0x67b696cb92237579L; 0xf37bf3b6491718a2L; 0xe523841f27f7f7b3L; 0x53d58feb3593c7d4L; 0x14cbf5c6f83e4f7cL; 0xcd5e8fea5dbb7a1fL; 0xbe605c631d30f2feL; 0xe41c2a27a35ef61bL; 0xc033298ccd6d7f65L; 0x0497626a0403afa9L; 0xe5ab59c07fba01f9L; 0x2a222962b4e67b0bL; 0x2e2b15dc2f02ed9aL; 0xe4e57e5931934d31L ];
      split_parent = 0x5b8889543f55f893L;
    };
  ]
[@@@ocamlformat "enable"]

let draws n f = List.init n (fun _ -> f ())

let test_reference_stream () =
  List.iter
    (fun r ->
      let fresh () = Rng.create ~seed:r.seed in
      let n = List.length r.bits64 in
      let msg what = Printf.sprintf "seed %d: %s" r.seed what in
      let g = fresh () in
      check (Alcotest.list Alcotest.int64) (msg "bits64") r.bits64
        (draws n (fun () -> Rng.bits64 g));
      List.iter
        (fun (bound, expect) ->
          let g = fresh () in
          check (Alcotest.list Alcotest.int)
            (msg (Printf.sprintf "int %d" bound))
            expect
            (draws n (fun () -> Rng.int g bound)))
        r.ints;
      let g = fresh () in
      check (Alcotest.list (Alcotest.float 0.)) (msg "float") r.floats
        (draws n (fun () -> Rng.float g));
      let g = fresh () in
      check Alcotest.string (msg "bool") r.bools
        (String.concat "" (draws n (fun () -> if Rng.bool g then "1" else "0")));
      let g = fresh () in
      let a = Array.init n Fun.id in
      Rng.shuffle g a;
      check (Alcotest.list Alcotest.int) (msg "shuffle") r.shuffled (Array.to_list a);
      let g = fresh () in
      let child = Rng.split g in
      check (Alcotest.list Alcotest.int64) (msg "split child") r.split_child
        (draws n (fun () -> Rng.bits64 child));
      check Alcotest.int64 (msg "split parent") r.split_parent (Rng.bits64 g))
    reference

(* [int] and [bool] return immediates, so a draw through them allocates
   nothing at all.  [float] is inlined where the compiler may inline
   across modules; where it may not (dune's default profile compiles with
   [-opaque]), the returned float is boxed, and that box of two words is
   the only allocation a draw may make. *)
let test_draws_allocate_nothing () =
  if Sys.backend_type <> Sys.Native then ()
  else begin
    let rng = Rng.create ~seed:3 in
    let n = 100_000 in
    let words name ~max f =
      (* Warm up once so a lazily initialised path is not counted. *)
      f ();
      let w = Test_util.minor_words_of f in
      if w < 0. || w > max then
        Alcotest.failf "%s: %.0f minor words over %d draws (at most %.0f allowed)" name w n
          max
    in
    words "int" ~max:0. (fun () ->
        for i = 1 to n do
          ignore (Rng.int rng (1 + (i land 1023)))
        done);
    words "bool" ~max:0. (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Rng.bool rng))
        done);
    words "float" ~max:(2. *. float_of_int n) (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Rng.float rng < 2.))
        done);
    (* Two uniform draws and the result: three boxes where floats cross
       module boundaries, and nothing for the rejection loop. *)
    words "Sample.normal" ~max:(6. *. float_of_int n) (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Sample.normal rng ~mu:0. ~sigma:1. < 0.))
        done)
  end

let test_determinism () =
  check (Alcotest.list Alcotest.int64) "same seed, same stream" (stream 42 32)
    (stream 42 32)

let test_seed_sensitivity () =
  checkb "different seeds differ" false (stream 1 8 = stream 2 8)

let test_copy_independent () =
  let rng = Rng.create ~seed:7 in
  let snapshot = Rng.copy rng in
  let from_original = List.init 8 (fun _ -> Rng.bits64 rng) in
  let from_copy = List.init 8 (fun _ -> Rng.bits64 snapshot) in
  check (Alcotest.list Alcotest.int64) "copy replays the stream" from_original
    from_copy

let test_split_diverges () =
  let rng = Rng.create ~seed:7 in
  let child = Rng.split rng in
  let a = List.init 8 (fun _ -> Rng.bits64 rng) in
  let b = List.init 8 (fun _ -> Rng.bits64 child) in
  checkb "child stream differs from parent" false (a = b)

let test_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:4 in
  List.iter
    (fun n ->
      for _ = 1 to 2_000 do
        let v = Rng.int rng n in
        if v < 0 || v >= n then Alcotest.failf "int %d out of [0,%d)" v n
      done)
    [ 1; 2; 3; 7; 10; 100; 1 lsl 30 ]

let test_int_one () =
  let rng = Rng.create ~seed:5 in
  check Alcotest.int "bound 1 is always 0" 0 (Rng.int rng 1)

let test_int_invalid () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create ~seed:6 in
  let buckets = Array.make 16 0 in
  let n = 64_000 in
  for _ = 1 to n do
    let v = Rng.int rng 16 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int n /. 16. in
  let chi2 =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  (* 15 degrees of freedom: chi2 above 50 is essentially impossible. *)
  checkb "chi-square sane" true (chi2 < 50.)

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0);
    checkb "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_pick_empty () =
  let rng = Rng.create ~seed:9 in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]));
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Rng.pick_list rng []))

let test_shuffle_preserves () =
  let rng = Rng.create ~seed:10 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 100 (fun i -> i))
    sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement rng ~k ~n in
      check Alcotest.int "size" k (Array.length s);
      let distinct = List.sort_uniq compare (Array.to_list s) in
      check Alcotest.int "distinct" k (List.length distinct);
      Array.iter (fun v -> checkb "in range" true (v >= 0 && v < n)) s)
    [ (0, 5); (1, 1); (3, 100); (50, 100); (100, 100); (10, 1000) ]

let mean_of f n =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_uniform_sampler () =
  let rng = Rng.create ~seed:12 in
  let m = mean_of (fun () -> Sample.uniform rng ~lo:2. ~hi:4.) 20_000 in
  close ~eps:0.05 "uniform mean" 3.0 m

let test_normal_sampler () =
  let rng = Rng.create ~seed:13 in
  let m = mean_of (fun () -> Sample.normal rng ~mu:5. ~sigma:2.) 20_000 in
  close ~eps:0.1 "normal mean" 5.0 m

let test_pareto_support () =
  let rng = Rng.create ~seed:14 in
  for _ = 1 to 5_000 do
    checkb "pareto >= k" true (Sample.pareto rng ~alpha:1.5 ~k:2. >= 2.)
  done

let test_exponential_mean () =
  let rng = Rng.create ~seed:15 in
  let m = mean_of (fun () -> Sample.exponential rng ~rate:4.) 40_000 in
  close ~eps:0.02 "exponential mean 1/rate" 0.25 m

let test_binomial_mean () =
  let rng = Rng.create ~seed:16 in
  let m =
    mean_of (fun () -> float_of_int (Sample.binomial rng ~n:10 ~p:0.3)) 20_000
  in
  close ~eps:0.1 "binomial mean np" 3.0 m

let test_binomial_bounds () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 1_000 do
    let v = Sample.binomial rng ~n:10 ~p:0.5 in
    checkb "in [0,n]" true (v >= 0 && v <= 10)
  done

let test_geometric_mean () =
  let rng = Rng.create ~seed:18 in
  let m = mean_of (fun () -> float_of_int (Sample.geometric rng ~p:0.25)) 40_000 in
  close ~eps:0.15 "geometric mean 1/p" 4.0 m

let test_lognormal_positive () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 2_000 do
    checkb "positive" true (Sample.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_zipf () =
  let rng = Rng.create ~seed:20 in
  let z = Sample.Zipf.create ~n:100 ~s:1.0 in
  Alcotest.check Alcotest.int "support" 100 (Sample.Zipf.support z);
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let r = Sample.Zipf.draw z rng in
    checkb "rank in range" true (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 1 dominates rank 50" true (counts.(1) > 5 * counts.(50))

let test_zipf_uniform_exponent () =
  let rng = Rng.create ~seed:21 in
  let z = Sample.Zipf.create ~n:10 ~s:0. in
  let counts = Array.make 11 0 in
  for _ = 1 to 20_000 do
    counts.(Sample.Zipf.draw z rng) <- counts.(Sample.Zipf.draw z rng) + 1
  done;
  checkb "s=0 is roughly uniform" true
    (Array.for_all (fun c -> c = 0 || (c > 1_200 && c < 2_800)) counts)

let qcheck_float_unit =
  QCheck.Test.make ~name:"Rng.float stays in [0,1)" ~count:500
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng in
      x >= 0. && x < 1.)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,n)" ~count:500
    QCheck.(pair small_signed_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let suite =
  [
    Alcotest.test_case "reference stream" `Quick test_reference_stream;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int bound one" `Quick test_int_one;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "shuffle preserves multiset" `Quick test_shuffle_preserves;
    Alcotest.test_case "sampling w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "uniform mean" `Quick test_uniform_sampler;
    Alcotest.test_case "normal mean" `Quick test_normal_sampler;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
    Alcotest.test_case "binomial bounds" `Quick test_binomial_bounds;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "zipf skew" `Quick test_zipf;
    Alcotest.test_case "zipf uniform exponent" `Quick test_zipf_uniform_exponent;
    QCheck_alcotest.to_alcotest qcheck_float_unit;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
  ]
