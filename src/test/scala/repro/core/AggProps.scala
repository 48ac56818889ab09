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
