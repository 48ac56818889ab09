package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck laws for the aggregate algebra — the paper's rule that the
  * `aggregate` stage must be commutative and associative is what makes
  * partial-gather exact; these properties pin that down.
  */
object AggProps extends Properties("Agg") {

  private val genPooled: Gen[Pooled] = for {
    a <- Gen.choose(-50, 50)
    b <- Gen.choose(-50, 50)
    w <- Gen.choose(0, 9)
  } yield Pooled(Array(a.toDouble, b.toDouble), w.toDouble)

  private val genUnion: Gen[Unioned] = for {
    n <- Gen.choose(1, 4)
    vs <- Gen.listOfN(n, Gen.choose(-50, 50))
  } yield Unioned(vs.map(v => (Array(v.toDouble), 1.0)))

  /** A 2-head, width-2 online-softmax state folded from 1–4 messages with
    * logits in ±800 (where `e^ℓ` alone overflows) and values in ±50.
    */
  private val genSoftmax: Gen[SoftmaxPool] = {
    val genMsg = for {
      l <- Gen.listOfN(2, Gen.choose(-800.0, 800.0))
      v <- Gen.listOfN(4, Gen.choose(-50.0, 50.0))
    } yield SoftmaxPool(2, Array(v(0), v(1), l(0), 1.0, v(2), v(3), l(1), 1.0)): Agg
    Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, genMsg)).map(_.reduce(Agg.merge).asInstanceOf[SoftmaxPool])
  }

  /** Equal maxima, denominators to 1e-12 relative, sums to 1e-12 of the
    * largest they can reach (`den · 50`).
    */
  private def closeSoftmax(x: Agg, y: Agg): Boolean = (x, y) match {
    case (SoftmaxPool(2, s1), SoftmaxPool(2, s2)) =>
      (0 until 2).forall { k =>
        val (sum, max, den) = (4 * k, 4 * k + 2, 4 * k + 3)
        s1(max) == s2(max) && math.abs(s1(den) - s2(den)) <= 1e-12 * s1(den) &&
          (sum until sum + 2).forall(j => math.abs(s1(j) - s2(j)) <= 1e-12 * 50 * s1(den))
      }
    case _ => false
  }

  private def eqPooled(x: Agg, y: Agg): Boolean = (x, y) match {
    case (Pooled(s1, w1), Pooled(s2, w2)) => s1.toSeq == s2.toSeq && w1 == w2
    case _ => false
  }

  property("pooled merge commutes") = Prop.forAll(genPooled, genPooled) { (a, b) =>
    eqPooled(Agg.merge(a, b), Agg.merge(b, a))
  }

  property("pooled merge associates") = Prop.forAll(genPooled, genPooled, genPooled) { (a, b, c) =>
    eqPooled(Agg.merge(Agg.merge(a, b), c), Agg.merge(a, Agg.merge(b, c)))
  }

  property("empty is identity") = Prop.forAll(genPooled) { a =>
    eqPooled(Agg.merge(EmptyAgg, a), a) && eqPooled(Agg.merge(a, EmptyAgg), a)
  }

  property("softmax merge commutes") = Prop.forAll(genSoftmax, genSoftmax) { (a, b) =>
    closeSoftmax(Agg.merge(a, b), Agg.merge(b, a))
  }

  property("softmax merge associates") = Prop.forAll(genSoftmax, genSoftmax, genSoftmax) { (a, b, c) =>
    closeSoftmax(Agg.merge(Agg.merge(a, b), c), Agg.merge(a, Agg.merge(b, c)))
  }

  property("empty is the softmax identity") = Prop.forAll(genSoftmax) { a =>
    (Agg.merge(EmptyAgg, a) eq a) && (Agg.merge(a, EmptyAgg) eq a)
  }

  property("union merge preserves the multiset") = Prop.forAll(genUnion, genUnion) { (a, b) =>
    val m = Agg.merge(a, b).asInstanceOf[Unioned]
    m.msgs.map(_._1(0)).sorted == (a.msgs ++ b.msgs).map(_._1(0)).sorted
  }

  property("poolOf(union of singletons) equals merged pools") = Prop.forAll(genUnion) { u =>
    val viaPool = Agg.poolOf(u)
    val merged = u.msgs.map { case (m, w) => Pooled(m, w): Agg }.reduce(Agg.merge).asInstanceOf[Pooled]
    viaPool.sum.toSeq == merged.sum.toSeq && viaPool.wsum == merged.wsum
  }
}
