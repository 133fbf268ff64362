query S07:
select t3.user_id, t1.photo_id
from in_album as t1, likes as t2, likes as t3, friends as t4
where t1.album_id = 5
  and t2.user_id = 17
  and t2.photo_id = t1.photo_id
  and t3.photo_id = t2.photo_id
  and t4.user_id = 17
  and t4.friend_id = t3.user_id
