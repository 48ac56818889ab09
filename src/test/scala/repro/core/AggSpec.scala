package repro.core

import org.scalatest.funsuite.AnyFunSuite

class AggSpec extends AnyFunSuite {

  private def pooled(vs: Double*): Pooled = Pooled(vs.toArray, 1.0)

  test("EmptyAgg is the identity of merge") {
    val p = pooled(1, 2)
    assert(Agg.merge(EmptyAgg, p) eq p)
    assert(Agg.merge(p, EmptyAgg) eq p)
    assert(Agg.merge(EmptyAgg, EmptyAgg) == EmptyAgg)
  }

  test("Pooled merge sums element-wise and adds weights") {
    val m = Agg.merge(Pooled(Array(1.0, 2.0), 2.0), Pooled(Array(10.0, 20.0), 3.0))
    m match {
      case Pooled(s, w) => assert(s.toSeq == Seq(11.0, 22.0) && w == 5.0)
      case other        => fail(s"unexpected $other")
    }
  }

  test("Pooled merge rejects dimension mismatch") {
    intercept[IllegalArgumentException](Agg.merge(pooled(1), pooled(1, 2)))
  }

  test("Unioned merge concatenates multisets") {
    val a = Unioned(List((Array(1.0), 1.0)))
    val b = Unioned(List((Array(2.0), 1.0), (Array(3.0), 1.0)))
    Agg.merge(a, b) match {
      case Unioned(ms) => assert(ms.map(_._1(0)) == List(1.0, 2.0, 3.0))
      case other       => fail(s"unexpected $other")
    }
  }

  test("mixing Pooled and Unioned is an error") {
    intercept[IllegalStateException](Agg.merge(pooled(1), Unioned(List((Array(1.0), 1.0)))))
  }

  test("poolOf folds a union to the same pool") {
    val u = Unioned(List((Array(1.0, 2.0), 1.5), (Array(3.0, 4.0), 0.5)))
    val p = Agg.poolOf(u)
    assert(p.sum.toSeq == Seq(4.0, 6.0) && p.wsum == 2.0)
  }

  test("merge is commutative for Pooled (up to fp equality on these values)") {
    val rng = new java.util.Random(3)
    (0 until 50).foreach { _ =>
      val a = Pooled(Array.fill(3)(rng.nextInt(10).toDouble), rng.nextInt(5).toDouble)
      val b = Pooled(Array.fill(3)(rng.nextInt(10).toDouble), rng.nextInt(5).toDouble)
      val ab = Agg.merge(a, b).asInstanceOf[Pooled]
      val ba = Agg.merge(b, a).asInstanceOf[Pooled]
      assert(ab.sum.toSeq == ba.sum.toSeq && ab.wsum == ba.wsum)
    }
  }

  test("merge is associative for Pooled (integer-valued messages)") {
    val rng = new java.util.Random(4)
    (0 until 50).foreach { _ =>
      def rand() = Pooled(Array.fill(2)(rng.nextInt(100).toDouble), rng.nextInt(9).toDouble)
      val (a, b, c) = (rand(), rand(), rand())
      val l = Agg.merge(Agg.merge(a, b), c).asInstanceOf[Pooled]
      val r = Agg.merge(a, Agg.merge(b, c)).asInstanceOf[Pooled]
      assert(l.sum.toSeq == r.sum.toSeq && l.wsum == r.wsum)
    }
  }

  test("union preserves multiset under any merge order") {
    def u(v: Double) = Unioned(List((Array(v), 1.0)))
    val l = Agg.merge(Agg.merge(u(1), u(2)), u(3)).asInstanceOf[Unioned]
    val r = Agg.merge(u(1), Agg.merge(u(2), u(3))).asInstanceOf[Unioned]
    assert(l.msgs.map(_._1(0)).sorted == r.msgs.map(_._1(0)).sorted)
  }
}
